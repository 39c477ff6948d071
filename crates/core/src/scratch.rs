//! Per-caller scratch state for matching, and the owning [`Matcher`]
//! convenience handle.
//!
//! The engines are **read-only during matching**: an event match only
//! consults the subscription index structures. Everything mutable per
//! event — generation-stamped candidate deduplication, hit counters,
//! the evaluator stack, the fulfilled set, the event's values by
//! attribute slot, the matched-id buffer — lives in a [`MatchScratch`]
//! owned by the *caller*. One engine can therefore serve any number of
//! concurrent matchers, each bringing its own scratch (the broker keeps
//! one per publisher thread).
//!
//! A single scratch may be reused across engines and engine kinds: all
//! buffers resize lazily to the engine at hand, and the stamp/hit
//! disciplines stay sound under sharing (stamps are compared against a
//! generation that is bumped on every match; hit counters are restored
//! to zero before a match returns).
//!
//! Shards skipped by content-aware pruning engage no scratch at all:
//! the per-shard step ([`Shard::match_event`](crate::Shard::match_event))
//! consults the shard's attribute synopsis *before* the scratch is
//! touched — on the parallel walk, before one is checked out of a
//! pool — so a pruned shard costs neither a lease nor a buffer reset;
//! its `matched` output is simply absent from the merge.

use std::sync::Arc;

use boolmatch_types::{AttrId, Event, Value};

use crate::eval::EvalFrame;
use crate::{FulfilledSet, MatchStats, SubscriptionId};

/// One event's attributes by an engine's attribute slots, so that a
/// predicate compared against the event in phase 2 finds its value with
/// one dense read instead of a search over attribute names. Generation
/// stamped like the other scratch tables: loading an event costs its own
/// attribute count, never the slot count.
#[derive(Debug, Default)]
pub(crate) struct EventView {
    /// Per slot: (generation it was loaded in, position in the event).
    slots: Vec<(u32, u32)>,
    generation: u32,
}

impl EventView {
    /// Points the view at `event`: `slot_of` resolves each attribute
    /// name to the engine's slot for it, or `None` for a name no
    /// predicate of the engine mentions.
    pub(crate) fn load(&mut self, event: &Event, slot_of: impl Fn(&str) -> Option<AttrId>) {
        if self.generation == u32::MAX {
            self.slots.fill((0, 0));
            self.generation = 0;
        }
        self.generation += 1;
        for (position, (name, _)) in event.iter().enumerate() {
            let Some(slot) = slot_of(name) else { continue };
            if self.slots.len() <= slot.index() {
                self.slots.resize(slot.index() + 1, (0, 0));
            }
            self.slots[slot.index()] = (self.generation, position as u32);
        }
    }

    // lint: hot-path — read once per predicate compared in phase 2.

    /// The value the loaded `event` carries for `slot`'s attribute.
    #[inline]
    pub(crate) fn value<'e>(&self, slot: usize, event: &'e Event) -> Option<&'e Value> {
        match self.slots.get(slot) {
            Some(&(stamp, position)) if stamp == self.generation => {
                event.value_at(position as usize)
            }
            _ => None,
        }
    }

    // lint: end-hot-path
}

/// Reusable per-event mutable state for [`FilterEngine`] matching.
///
/// Create one per thread (or per call site) and pass it to
/// [`FilterEngine::phase2`] / [`FilterEngine::match_event`]; in steady
/// state matching is then allocation-free. One scratch may serve
/// several engines and engine kinds in turn: every buffer resizes
/// lazily to the engine at hand.
///
/// [`FilterEngine`]: crate::FilterEngine
/// [`FilterEngine::phase2`]: crate::FilterEngine::phase2
/// [`FilterEngine::match_event`]: crate::FilterEngine::match_event
#[derive(Debug, Default)]
pub struct MatchScratch {
    /// Generation-stamped marks, indexed by subscription (non-canonical
    /// candidate dedup) or by original subscription (counting match
    /// dedup). Entries are valid only when equal to `generation`.
    pub(crate) stamps: Vec<u32>,
    pub(crate) generation: u32,
    /// Candidate buffer: subscription indexes (non-canonical) or flat
    /// conjunction indexes (counting variant).
    pub(crate) candidates: Vec<u32>,
    /// Hit counters for the counting engines; all-zero between events.
    pub(crate) hit: Vec<u8>,
    /// Explicit evaluator stack for encoded-tree evaluation.
    pub(crate) eval_stack: Vec<EvalFrame>,
    /// Phase-1 output buffer used by `match_event`.
    pub(crate) fulfilled: FulfilledSet,
    /// Matched subscription ids of the most recent `match_event_into`,
    /// reused across events.
    pub(crate) matched: Vec<SubscriptionId>,
    /// The global ids [`crate::ShardedEngine`]'s walk accumulates while
    /// `matched` carries one shard's.
    pub(crate) shard_matched: Vec<SubscriptionId>,
    /// The current event by attribute slot, for the non-canonical
    /// engine's phase-2 comparisons.
    pub(crate) view: EventView,
}

impl MatchScratch {
    /// Creates an empty scratch; buffers grow lazily to the engines it
    /// is used with.
    pub fn new() -> Self {
        MatchScratch::default()
    }

    // lint: hot-path — matched-id access runs once per event on the
    // delivery path.

    /// Matched subscription ids of the most recent
    /// [`match_event_into`](crate::FilterEngine::match_event_into), in
    /// unspecified order, without duplicates.
    pub fn matched(&self) -> &[SubscriptionId] {
        &self.matched
    }

    // lint: end-hot-path

    /// Clears all per-event state while **keeping** every buffer's
    /// capacity — the hygiene step a scratch pool applies once per
    /// checkout. A reset scratch behaves exactly like a fresh one, but
    /// reusing it allocates nothing in steady state (see
    /// [`crate::ScratchPool`]).
    ///
    /// Most of the state is already self-restoring between matches
    /// (stamps are generation-guarded, hit counters return to zero
    /// before a match finishes), so this only clears the buffers whose
    /// logical length carries over.
    pub fn reset(&mut self) {
        self.candidates.clear();
        self.eval_stack.clear();
        self.matched.clear();
        self.shard_matched.clear();
    }

    /// Pre-sizes the buffers for `engine` so the first match does not
    /// pay the growth cost. Purely an optimisation: every buffer also
    /// resizes lazily inside `phase2`.
    pub fn ensure_capacity(&mut self, engine: &(impl crate::FilterEngine + ?Sized)) {
        let bound = engine.subscription_id_bound();
        if self.stamps.len() < bound {
            self.stamps.resize(bound, 0);
        }
        let units = engine.unit_slot_bound();
        if self.hit.len() < units {
            self.hit.resize(units, 0);
        }
        self.fulfilled.begin(engine.predicate_universe());
    }

    /// Approximate heap bytes held by the scratch buffers.
    pub fn heap_bytes(&self) -> usize {
        self.stamps.capacity() * 4
            + self.candidates.capacity() * 4
            + self.hit.capacity()
            + self.eval_stack.capacity() * std::mem::size_of::<EvalFrame>()
            + self.fulfilled.heap_bytes()
            + self.matched.capacity() * std::mem::size_of::<SubscriptionId>()
            + self.shard_matched.capacity() * std::mem::size_of::<SubscriptionId>()
            + self.view.slots.capacity() * 8
    }

    /// Starts a stamped pass over `slots` positions: ensures the stamp
    /// array covers them, bumps the generation (with wrap-around reset)
    /// and returns the fresh generation value.
    pub(crate) fn begin_stamps(&mut self, slots: usize) -> u32 {
        if self.stamps.len() < slots {
            self.stamps.resize(slots, 0);
        }
        if self.generation == u32::MAX {
            self.stamps.fill(0);
            self.generation = 0;
        }
        self.generation += 1;
        self.generation
    }

    /// Ensures the hit vector covers `slots` counters (zero-filled).
    pub(crate) fn ensure_hit(&mut self, slots: usize) {
        if self.hit.len() < slots {
            self.hit.resize(slots, 0);
        }
    }
}

// lint: hot-path — the id rewrite itself, once per matched id.

/// Rewrites `ids` in place through `translate`, dropping the ids it
/// maps to `None`: the one local → global rewrite, fed from the matched
/// shard's own [`crate::ShardTranslation`] map (under whatever lock
/// already guards that shard), for a single event's matched ids and for
/// the per-event lists of a batch. A `None` means the subscription was
/// retired (or migrated away) between matching and translation;
/// delivery would have skipped it anyway, so it is filtered here, once,
/// instead of at every consumer.
pub(crate) fn translate_ids(
    ids: &mut Vec<SubscriptionId>,
    mut translate: impl FnMut(SubscriptionId) -> Option<SubscriptionId>,
) {
    ids.retain_mut(|id| match translate(*id) {
        Some(global) => {
            *id = global;
            true
        }
        None => false,
    });
}

// lint: end-hot-path

/// Reusable state for every batch walk — [`crate::FilterEngine::match_batch`],
/// [`crate::Shard::match_batch`] and the broker's batch publish: the one
/// [`MatchScratch`] every event of the batch is matched with, plus the
/// per-event output lists. A batch is the per-event step looped, so the
/// scratch holds nothing that scales with the batch width except the
/// matched ids themselves; like [`MatchScratch`] it resizes lazily and
/// may serve any number of engines and engine kinds.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use boolmatch_core::{BatchScratch, EngineKind, FilterEngine};
/// use boolmatch_expr::Expr;
/// use boolmatch_types::Event;
///
/// let mut engine = EngineKind::Counting.build();
/// let id = engine.subscribe(&Expr::parse("a = 1 and b = 2")?)?;
/// let events = vec![
///     Arc::new(Event::builder().attr("a", 1_i64).attr("b", 2_i64).build()),
///     Arc::new(Event::builder().attr("a", 1_i64).build()),
/// ];
/// let mut batch = BatchScratch::new();
/// let stats = engine.match_batch(&events, &[], &mut batch);
/// assert_eq!(batch.matched(0), &[id]);
/// assert!(batch.matched(1).is_empty());
/// assert_eq!(stats.batch_events, 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Default)]
pub struct BatchScratch {
    /// The per-event scratch each event of the batch is matched with.
    pub(crate) scalar: MatchScratch,
    /// Per-event matched ids — the output of the most recent batch,
    /// indexed by event position.
    pub(crate) matched: Vec<Vec<SubscriptionId>>,
}

impl BatchScratch {
    /// Creates an empty batch scratch; buffers grow lazily to the
    /// engines and batch lengths it is used with.
    pub fn new() -> Self {
        BatchScratch::default()
    }

    /// Matched subscription ids of event `event` (its position in the
    /// `events` slice) from the most recent batch, in unspecified order,
    /// without duplicates from any one engine or shard.
    ///
    /// # Panics
    ///
    /// Panics if `event` is outside the most recent batch.
    pub fn matched(&self, event: usize) -> &[SubscriptionId] {
        &self.matched[event]
    }

    /// Clears all per-batch state while keeping every buffer's
    /// capacity, mirroring [`MatchScratch::reset`].
    pub fn reset(&mut self) {
        self.scalar.reset();
        self.matched.iter_mut().for_each(Vec::clear);
    }

    /// Pre-sizes the embedded per-event scratch for `engine`; see
    /// [`MatchScratch::ensure_capacity`].
    pub fn ensure_capacity(&mut self, engine: &(impl crate::FilterEngine + ?Sized)) {
        self.scalar.ensure_capacity(engine);
    }

    /// Approximate heap bytes held: the embedded per-event scratch plus
    /// the output lists.
    pub fn heap_bytes(&self) -> usize {
        self.scalar.heap_bytes()
            + self
                .matched
                .iter()
                .map(|ids| ids.capacity() * std::mem::size_of::<SubscriptionId>())
                .sum::<usize>()
            + self.matched.capacity() * std::mem::size_of::<Vec<SubscriptionId>>()
    }

    /// Sizes and clears the per-event output lists for a batch of
    /// `events` events, and checks the caller's `skip` mask against it.
    /// Every batch starts here, once: the shard visits that follow
    /// ([`Shard::match_batch`](crate::Shard::match_batch)) append to
    /// the lists.
    pub fn begin_batch(&mut self, events: usize, skip: &[bool]) {
        debug_assert!(
            skip.is_empty() || skip.len() == events,
            "skip mask must be empty or one flag per event"
        );
        if self.matched.len() < events {
            self.matched.resize_with(events, Vec::new);
        }
        for m in self.matched.iter_mut().take(events) {
            m.clear();
        }
    }

    /// Sorts and deduplicates the matched lists of the first `events`
    /// events — for a caller whose visits may have seen one
    /// subscription twice (the broker, racing a migration).
    pub fn dedup(&mut self, events: usize) {
        for ids in self.matched.iter_mut().take(events) {
            ids.sort_unstable();
            ids.dedup();
        }
    }

    // lint: hot-path — the one batch loop: every batch walk in the
    // workspace runs its events through here.

    /// Runs `step` — one event's match — on the embedded scratch for
    /// every event `skip` does not mask, and appends the ids it leaves
    /// to that event's list. The ids are copied, not swapped out: each
    /// list then keeps the capacity its own position needs, instead of
    /// buffers rotating through the positions and all growing to the
    /// largest. The one place a batch's counters are kept: a step that
    /// was not pruned counts one
    /// [`batch_events`](crate::MatchStats::batch_events) and one
    /// [`batch_passes`](crate::MatchStats::batch_passes).
    pub(crate) fn walk(
        &mut self,
        events: &[Arc<Event>],
        skip: &[bool],
        mut step: impl FnMut(&Event, &mut MatchScratch) -> MatchStats,
    ) -> MatchStats {
        let mut stats = MatchStats::default();
        for (e, event) in events.iter().enumerate() {
            if skip.get(e).copied().unwrap_or(false) {
                continue;
            }
            let mut event_stats = step(event, &mut self.scalar);
            if event_stats.shards_pruned == 0 {
                event_stats.batch_events = 1;
                event_stats.batch_passes = 1;
            }
            self.matched[e].extend_from_slice(&self.scalar.matched);
            stats = stats + event_stats;
        }
        stats
    }

    // lint: end-hot-path
}

/// An engine bundled with its own [`MatchScratch`] — the convenience
/// handle for single-threaded owners (tests, examples) that
/// want the pre-redesign `&mut self` ergonomics back.
///
/// Derefs to the engine, so `subscribe`/`unsubscribe`/`phase1` and the
/// inspection methods are called directly on the matcher.
///
/// # Examples
///
/// ```
/// use boolmatch_core::{EngineKind, Matcher};
/// use boolmatch_expr::Expr;
/// use boolmatch_types::Event;
///
/// let mut matcher = EngineKind::NonCanonical.build_matcher();
/// let id = matcher.subscribe(&Expr::parse("a = 1 and b = 2")?)?;
/// let event = Event::builder().attr("a", 1_i64).attr("b", 2_i64).build();
/// assert_eq!(matcher.match_event(&event).matched, vec![id]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Matcher<E> {
    engine: E,
    scratch: MatchScratch,
}

impl<E: crate::FilterEngine> Matcher<E> {
    /// Wraps `engine` with a fresh scratch.
    pub fn new(engine: E) -> Self {
        Matcher {
            engine,
            scratch: MatchScratch::new(),
        }
    }

    /// Both phases against the owned scratch; returns an owned result.
    pub fn match_event(&mut self, event: &boolmatch_types::Event) -> crate::MatchResult {
        self.engine.match_event(event, &mut self.scratch)
    }

    /// Both phases, leaving the ids in [`Matcher::matched`] — the
    /// allocation-free variant.
    pub fn match_event_into(&mut self, event: &boolmatch_types::Event) -> crate::MatchStats {
        self.engine.match_event_into(event, &mut self.scratch)
    }

    /// Phase 2 only, with the owned scratch.
    pub fn phase2(
        &mut self,
        fulfilled: &FulfilledSet,
        matched: &mut Vec<SubscriptionId>,
    ) -> crate::MatchStats {
        self.engine.phase2(fulfilled, &mut self.scratch, matched)
    }

    /// Matched ids of the most recent [`Matcher::match_event_into`].
    pub fn matched(&self) -> &[SubscriptionId] {
        self.scratch.matched()
    }

    /// The wrapped engine.
    pub fn engine(&self) -> &E {
        &self.engine
    }

    /// The wrapped engine, mutably.
    pub fn engine_mut(&mut self) -> &mut E {
        &mut self.engine
    }
}

impl<E> std::ops::Deref for Matcher<E> {
    type Target = E;

    fn deref(&self) -> &E {
        &self.engine
    }
}

impl<E> std::ops::DerefMut for Matcher<E> {
    fn deref_mut(&mut self) -> &mut E {
        &mut self.engine
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EngineKind, FilterEngine};
    use boolmatch_expr::Expr;
    use boolmatch_types::Event;

    #[test]
    fn scratch_is_shareable_across_engine_kinds() {
        // One scratch serving three engines of different kinds, in an
        // interleaved order: the stamp/hit disciplines must not leak
        // state between them.
        let mut engines: Vec<_> = EngineKind::ALL.iter().map(|k| k.build()).collect();
        let expr = Expr::parse("(a = 1 or b = 2) and c = 3").unwrap();
        for e in &mut engines {
            e.subscribe(&expr).unwrap();
        }
        let mut scratch = MatchScratch::new();
        let hit = Event::builder().attr("b", 2_i64).attr("c", 3_i64).build();
        let partial = Event::builder().attr("c", 3_i64).build();
        for _ in 0..3 {
            for e in &engines {
                assert_eq!(e.match_event(&hit, &mut scratch).matched.len(), 1);
                assert!(e.match_event(&partial, &mut scratch).matched.is_empty());
            }
        }
    }

    #[test]
    fn batch_scratch_is_shareable_across_engine_kinds() {
        // One batch scratch serving three engines of different kinds:
        // nothing may leak from one engine's batch into the next.
        let mut engines: Vec<_> = EngineKind::ALL.iter().map(|k| k.build()).collect();
        let expr = Expr::parse("(a = 1 or b = 2) and c = 3").unwrap();
        for e in &mut engines {
            e.subscribe(&expr).unwrap();
        }
        let mut batch = BatchScratch::new();
        let events: Vec<std::sync::Arc<Event>> = (0..70)
            .map(|i| {
                std::sync::Arc::new(if i % 2 == 0 {
                    Event::builder().attr("b", 2_i64).attr("c", 3_i64).build()
                } else {
                    Event::builder().attr("c", 3_i64).build()
                })
            })
            .collect();
        for _ in 0..3 {
            for e in &engines {
                e.match_batch(&events, &[], &mut batch);
                for (i, _) in events.iter().enumerate() {
                    assert_eq!(batch.matched(i).len(), usize::from(i % 2 == 0), "event {i}");
                }
            }
        }
    }

    #[test]
    fn batch_scratch_reset_keeps_capacity() {
        let mut engine = EngineKind::Counting.build();
        for i in 0..20 {
            engine
                .subscribe(&Expr::parse(&format!("(x{i} = 1 or y{i} = 2) and z{i} = 3")).unwrap())
                .unwrap();
        }
        let mut batch = BatchScratch::new();
        assert_eq!(batch.heap_bytes(), 0);
        let events: Vec<std::sync::Arc<Event>> = (0..80)
            .map(|_| std::sync::Arc::new(Event::builder().attr("x0", 1_i64).build()))
            .collect();
        engine.match_batch(&events, &[], &mut batch);
        let grown = batch.heap_bytes();
        assert!(grown > 0);
        // The hygiene pair is allocation-neutral once warm.
        batch.reset();
        batch.ensure_capacity(&engine);
        let warm = batch.heap_bytes();
        assert!(warm >= grown);
        batch.reset();
        batch.ensure_capacity(&engine);
        assert_eq!(batch.heap_bytes(), warm);
    }

    #[test]
    fn batch_scratch_holds_one_match_scratch_plus_its_output_lists() {
        // 40 subscriptions of 32 conjunctions each: 1 280 flat units,
        // and a batch scratch holds nothing per (unit, event).
        let mut engine = EngineKind::Counting.build();
        for i in 0..40 {
            let groups: Vec<String> = (0..5)
                .map(|g| format!("(a{i}_{g} = 1 or b{i}_{g} = 2)"))
                .collect();
            engine
                .subscribe(&Expr::parse(&groups.join(" and ")).unwrap())
                .unwrap();
        }
        let events: Vec<std::sync::Arc<Event>> = (0..64)
            .map(|i| {
                let i = i % 40;
                std::sync::Arc::new(Event::from_pairs(
                    (0..5).map(|g| (format!("a{i}_{g}"), 1_i64)),
                ))
            })
            .collect();
        let mut batch = BatchScratch::new();
        batch.ensure_capacity(&engine);
        let stats = engine.match_batch(&events, &[], &mut batch);
        assert_eq!(stats.matched, 64);

        let mut scratch = MatchScratch::new();
        scratch.ensure_capacity(&engine);
        for event in &events {
            engine.match_event_into(event, &mut scratch);
        }
        let output_lists = batch.matched.capacity() * std::mem::size_of::<Vec<SubscriptionId>>()
            + batch
                .matched
                .iter()
                .map(|ids| ids.capacity() * std::mem::size_of::<SubscriptionId>())
                .sum::<usize>();
        assert!(
            batch.heap_bytes() <= scratch.heap_bytes() + output_lists,
            "batch {} vs per-event {} + {output_lists} of output lists",
            batch.heap_bytes(),
            scratch.heap_bytes(),
        );
        assert!(batch.heap_bytes() < engine.unit_slot_bound() * 64);
    }

    #[test]
    fn ensure_capacity_presizes() {
        let mut matcher = EngineKind::Counting.build_matcher();
        for i in 0..10 {
            let e = Expr::parse(&format!("(x{i} = 1 or y{i} = 2) and z{i} = 3")).unwrap();
            matcher.subscribe(&e).unwrap();
        }
        let mut scratch = MatchScratch::new();
        scratch.ensure_capacity(matcher.engine());
        assert!(scratch.stamps.len() >= 10);
        assert!(scratch.hit.len() >= 20, "flat slots: 2 per subscription");
        assert!(scratch.heap_bytes() > 0);

        // After unsubscribe churn the live unit count shrinks but the
        // slot space does not; pre-sizing must cover freed slots too,
        // because phase2 indexes the hit vector by slot.
        for i in 0..9 {
            matcher
                .unsubscribe(crate::SubscriptionId::from_index(i))
                .unwrap();
        }
        let mut churned = MatchScratch::new();
        churned.ensure_capacity(matcher.engine());
        assert!(
            churned.hit.len() >= 20,
            "hit sized to the slot bound ({}), not the live units",
            matcher.engine().unit_slot_bound()
        );

        // `reset` keeps capacity (pool hygiene).
        let before = scratch.heap_bytes();
        scratch.reset();
        assert_eq!(scratch.heap_bytes(), before, "reset keeps capacity");
    }

    #[test]
    fn matched_accessor_reflects_last_match() {
        let mut matcher = EngineKind::NonCanonical.build_matcher();
        let id = matcher.subscribe(&Expr::parse("a = 1").unwrap()).unwrap();
        let stats = matcher.match_event_into(&Event::builder().attr("a", 1_i64).build());
        assert_eq!(stats.matched, 1);
        assert_eq!(matcher.matched(), &[id]);
        matcher.match_event_into(&Event::builder().attr("a", 2_i64).build());
        assert!(matcher.matched().is_empty());
    }

    #[test]
    fn translate_ids_rewrites_and_filters_in_place() {
        let mut ids = vec![
            crate::SubscriptionId::from_index(0),
            crate::SubscriptionId::from_index(1),
            crate::SubscriptionId::from_index(2),
        ];
        // Shift live ids by 10; id 1 was retired concurrently.
        translate_ids(&mut ids, |id| {
            (id.index() != 1).then(|| crate::SubscriptionId::from_index(id.index() + 10))
        });
        assert_eq!(
            ids,
            [
                crate::SubscriptionId::from_index(10),
                crate::SubscriptionId::from_index(12)
            ]
        );
    }

    #[test]
    fn generation_wraparound_resets_stamps() {
        let mut scratch = MatchScratch::new();
        scratch.begin_stamps(4);
        scratch.stamps[2] = scratch.generation;
        scratch.generation = u32::MAX;
        let gen = scratch.begin_stamps(4);
        assert_eq!(gen, 1, "wrapped around");
        assert!(scratch.stamps.iter().all(|&s| s == 0), "stamps cleared");
    }
}
