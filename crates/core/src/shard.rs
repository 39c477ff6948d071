//! The shard — one engine with its read-side routing structures and
//! the per-shard match step — and [`ShardedEngine`], `S` shards
//! composed into a plain standalone value.
//!
//! Partitioning subscriptions across independent engine shards is the
//! standard route to write-scalable content-based matching: each
//! subscribe/unsubscribe touches exactly one shard, and each shard is
//! just a smaller engine, so per-event phase-2 cost per shard shrinks
//! with `S`. [`ShardedEngine`] is **not** a [`FilterEngine`]: phase 1
//! and phase 2 stay per shard, in each engine's own predicate and
//! subscription ids, and the composite only walks the shared step over
//! its shards (sequentially, per batch, or fanned out) and hands back
//! global ids.
//!
//! Routing splits across two structures. The write-side
//! [`SubscriptionDirectory`] issues global ids — a retired slot under
//! its next generation when one is free, else a fresh one — and maps
//! each id to whatever `(shard, local)` slot currently backs it. Each
//! shard's engine likewise reissues the local ids it frees, so every
//! table here follows the live set. Each shard additionally owns a
//! read-side [`ShardTranslation`] — its local → global reverse map —
//! which is all matching ever consults: translating a matched local id
//! touches only the shard that produced it, never the directory.
//! Placement is load-aware: [`ShardedEngine::subscribe`] picks the
//! least-loaded shard (round-robin tie-break), so a shard drained by
//! unsubscribes is refilled instead of skipped past blindly, or —
//! under [`PlacementPolicy::ClusterByAttribute`] — the shard the
//! subscription's dominant equality attribute hashes to.
//!
//! **Live placement changes and locking are not here.**
//! `ShardedEngine` is a plain value with `&mut self` registration, like
//! every other engine, and a subscription stays on the shard it was
//! placed on until it leaves. Live migration, rebalancing and resizing
//! belong to the broker (`boolmatch-broker`'s
//! `Broker::{migrate, rebalance, resize}`), which holds its shards in
//! separate `RwLock`s around a shared [`SubscriptionDirectory`] so that
//! shard writes run concurrently and a migration stalls only the two
//! shards involved.
//!
//! # Examples
//!
//! ```
//! use boolmatch_core::{EngineKind, MatchScratch, ShardedEngine};
//! use boolmatch_expr::Expr;
//! use boolmatch_types::Event;
//!
//! let mut engine = ShardedEngine::new(EngineKind::NonCanonical, 4);
//! let id = engine.subscribe(&Expr::parse("(a = 1 or b = 2) and c = 3")?)?;
//! assert_eq!(engine.directory().loads(), &[1, 0, 0, 0]);
//! let event = Event::builder().attr("b", 2_i64).attr("c", 3_i64).build();
//! let mut scratch = MatchScratch::new();
//! engine.match_event_into(&event, &mut scratch);
//! assert_eq!(scratch.matched(), [id]);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::fmt;
use std::ops::DerefMut;
use std::sync::Arc;

use boolmatch_expr::Expr;
use boolmatch_types::Event;

use crate::engine::{EngineKind, FilterEngine, SubscribeError, UnsubscribeError};
use crate::pool::{PooledScratch, ScratchPool};
use crate::routing::{PlacementPolicy, ShardTranslation, SubscriptionDirectory};
use crate::scratch::translate_ids;
use crate::synopsis::ShardSynopsis;
use crate::{BatchScratch, MatchScratch, MatchStats, SubscriptionId};

/// A boxed engine usable as a shard.
pub type BoxedEngine = Box<dyn FilterEngine + Send + Sync>;

/// One shard: its engine plus the two read-side structures matching
/// consults — the local → global translation map and the attribute
/// synopsis pruning reads. Keeping both *with* the shard (instead of in
/// the shared directory) is what keeps the publish path off any shared
/// state. [`ShardedEngine`] holds plain `Shard`s; the broker holds each
/// behind its own `RwLock`, so all three are protected together.
///
/// The shard owns **the per-shard match step** — *admit by synopsis →
/// engine match → translate local ids to global in place* —
/// [`Shard::match_event`], for one event. Every shard walk in the
/// workspace, a batch's included, is a loop over it.
pub struct Shard {
    engine: BoxedEngine,
    translation: ShardTranslation,
    /// Conservative summary of the residents' required conjuncts;
    /// maintained in lockstep with `translation` (both change only in
    /// [`Shard::bind`] and [`Shard::unsubscribe`]) so matching can skip
    /// the shard when it provably holds zero candidates.
    synopsis: ShardSynopsis,
}

impl Shard {
    /// An empty shard around `engine`.
    pub fn new(engine: BoxedEngine) -> Self {
        Shard {
            engine,
            translation: ShardTranslation::new(),
            synopsis: ShardSynopsis::new(),
        }
    }

    /// The shard's engine.
    pub fn engine(&self) -> &(dyn FilterEngine + Send + Sync) {
        &*self.engine
    }

    /// The engine, mutably — to register an expression before its
    /// global id exists (follow with [`Shard::bind`]) or to drop such a
    /// registration again. Bound subscriptions leave through
    /// [`Shard::unsubscribe`].
    pub fn engine_mut(&mut self) -> &mut BoxedEngine {
        &mut self.engine
    }

    /// The local → global translation map.
    pub fn translation(&self) -> &ShardTranslation {
        &self.translation
    }

    /// Heap bytes of the routing structures kept beside the engine:
    /// translation map plus synopsis.
    pub fn routing_bytes(&self) -> usize {
        self.translation.heap_bytes() + self.synopsis.heap_bytes()
    }

    /// Makes the engine's `local` registration of `expr` resident under
    /// the global id `global`: from here on the step admits events for
    /// it and reports it as `global`.
    pub fn bind(&mut self, local: SubscriptionId, global: SubscriptionId, expr: &Expr) {
        self.translation.set(local, global);
        self.synopsis.insert(local, expr);
    }

    /// Removes resident `local` — from translation map, engine and
    /// synopsis — **if the slot still belongs to `global`**, and
    /// returns whether it did. The check is the stale-cell guard
    /// concurrent owners rely on: a caller that lost a race (the
    /// removal was completed on its behalf, or the slot was reissued)
    /// touches nothing.
    pub fn unsubscribe(&mut self, local: SubscriptionId, global: SubscriptionId) -> bool {
        let resident = self.translation.clear_if(local, global);
        if resident {
            self.engine
                .unsubscribe(local)
                .expect("translation and shard engine are kept in sync");
            self.synopsis.remove(local);
        }
        resident
    }

    // lint: hot-path — the per-shard match step: shard-local state
    // only (the caller holds whatever guards this shard), no lock, no
    // panic site; a translation miss is dropped, not unwrapped.

    /// The step for one event with the scratch in hand: afterwards
    /// [`MatchScratch::matched`] holds this shard's matches as
    /// **global** ids (none when the synopsis pruned the shard, which
    /// the returned stats report as `shards_pruned`). A batch is this
    /// step looped per event under one visit of the shard.
    pub fn match_event(&self, event: &Event, scratch: &mut MatchScratch) -> MatchStats {
        let held = &mut *scratch;
        let (held, stats) = self.match_event_with(event, move |_| held);
        if held.is_none() {
            scratch.matched.clear();
        }
        stats
    }

    /// The step for one event, **synopsis first**: a shard that
    /// provably holds no candidate does no work and never calls
    /// `acquire` (no lease, no hygiene) — it returns `None` and
    /// `shards_pruned: 1`. Otherwise the scratch `acquire` hands over
    /// for the shard's engine is matched into, its matched ids are
    /// translated to global ids in place through the shard's own map,
    /// and it is handed back. A local id without a translation was
    /// retired between matching and translation by a concurrent owner;
    /// delivery would skip it anyway, so it is dropped here. The body
    /// of [`Shard::match_event`], and of the pooled remote shards of
    /// [`ShardedEngine::match_event_parallel`].
    fn match_event_with<H: DerefMut<Target = MatchScratch>>(
        &self,
        event: &Event,
        acquire: impl FnOnce(&BoxedEngine) -> H,
    ) -> (Option<H>, MatchStats) {
        if !self.synopsis.admits(event) {
            let stats = MatchStats {
                shards_pruned: 1,
                ..MatchStats::default()
            };
            return (None, stats);
        }
        let mut scratch = acquire(&self.engine);
        let stats = self.engine().match_event_into(event, &mut scratch);
        self.translate(&mut scratch.matched);
        (Some(scratch), stats)
    }

    /// One visit of the shard for a whole batch: the step for every
    /// event `skip` does not mask, each event's global ids appended to
    /// its list in `batch`. Call [`BatchScratch::begin_batch`] once
    /// before a batch's first visit; visiting the shards in order then
    /// leaves each event's ids in shard order, exactly as the
    /// sequential one-event walk would.
    ///
    /// # Panics
    ///
    /// Panics if `batch` was begun for fewer than `events.len()` events.
    pub fn match_batch(
        &self,
        events: &[Arc<Event>],
        skip: &[bool],
        batch: &mut BatchScratch,
    ) -> MatchStats {
        batch.walk(events, skip, |event, scratch| {
            self.match_event(event, scratch)
        })
    }

    /// In-place local → global translation of one id list through the
    /// shard's own map, dropping ids without an entry.
    fn translate(&self, ids: &mut Vec<SubscriptionId>) {
        translate_ids(ids, |local| self.translation.global_of(local));
    }
    // lint: end-hot-path
}

/// `S` inner engines composed into one standalone value: the broker's
/// shards without their locks.
///
/// * `subscribe` places onto the least-loaded shard (round-robin
///   tie-break, so a churn-free stream places exactly like classic
///   round-robin); `unsubscribe` routes by directory lookup to the
///   owning shard.
/// * Matching runs the per-shard step ([`Shard::match_event`]) on
///   every shard and concatenates the global ids it leaves, in shard
///   order; [`MatchStats`] are summed
///   component-wise (per-shard work adds up — e.g. `fulfilled` counts
///   each shard's own phase-1 output, since shards intern predicates
///   independently).
/// * Per-shard phases, counts and memory are read through
///   [`ShardedEngine::shard`], [`ShardedEngine::translation`],
///   [`ShardedEngine::synopsis`] and [`ShardedEngine::directory`].
pub struct ShardedEngine {
    directory: SubscriptionDirectory,
    shards: Vec<Shard>,
    /// How `subscribe` picks a shard; see [`PlacementPolicy`].
    placement: PlacementPolicy,
}

impl ShardedEngine {
    /// `shards` fresh engines of `kind`.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(kind: EngineKind, shards: usize) -> Self {
        Self::from_engines((0..shards).map(|_| kind.build()).collect())
    }

    /// Composes pre-built (possibly custom or heterogeneous) engines;
    /// shard `i` is `engines[i]`.
    ///
    /// # Panics
    ///
    /// Panics if `engines` is empty.
    pub fn from_engines(engines: Vec<BoxedEngine>) -> Self {
        ShardedEngine {
            directory: SubscriptionDirectory::new(engines.len()),
            shards: engines.into_iter().map(Shard::new).collect(),
            placement: PlacementPolicy::default(),
        }
    }

    /// Sets the [`PlacementPolicy`] subsequent subscribes use. Existing
    /// placements are untouched.
    #[must_use]
    pub fn with_placement(mut self, placement: PlacementPolicy) -> Self {
        self.placement = placement;
        self
    }

    /// Registers `expr` on the shard the [`PlacementPolicy`] picks and
    /// returns its global id.
    ///
    /// # Errors
    ///
    /// The shard engine's [`SubscribeError`]; the reservation is then
    /// cancelled and nothing is placed.
    pub fn subscribe(&mut self, expr: &Expr) -> Result<SubscriptionId, SubscribeError> {
        let shard = self.directory.place_for(self.placement, expr);
        match self.shards[shard].engine.subscribe(expr) {
            Ok(local) => {
                let global = self.directory.issue(shard, local);
                self.shards[shard].bind(local, global, expr);
                Ok(global)
            }
            Err(e) => {
                self.directory.cancel(shard);
                Err(e)
            }
        }
    }

    /// Removes global `id` from its owning shard.
    ///
    /// # Errors
    ///
    /// [`UnsubscribeError::UnknownSubscription`] for an id that is not
    /// live (never issued, or already removed).
    pub fn unsubscribe(&mut self, id: SubscriptionId) -> Result<(), UnsubscribeError> {
        let Some((shard, local)) = self.directory.placement_of(id) else {
            // Errors surface in the caller's (global) id space.
            return Err(UnsubscribeError::UnknownSubscription(id));
        };
        self.directory.retire(id);
        let released = self.shards[shard].unsubscribe(local, id);
        debug_assert!(released, "translation and directory are kept in sync");
        Ok(())
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The global-id directory (placements, loads, free list), for
    /// inspection.
    pub fn directory(&self) -> &SubscriptionDirectory {
        &self.directory
    }

    /// Shard `i`'s engine, for inspection.
    ///
    /// # Panics
    ///
    /// Panics if `i >= shard_count()`.
    pub fn shard(&self, i: usize) -> &(dyn FilterEngine + Send + Sync) {
        self.shards[i].engine()
    }

    /// Shard `i`'s local → global translation map, for inspection.
    ///
    /// # Panics
    ///
    /// Panics if `i >= shard_count()`.
    pub fn translation(&self, i: usize) -> &ShardTranslation {
        &self.shards[i].translation
    }

    /// Shard `i`'s attribute synopsis, for inspection (the conservative
    /// candidate summary matching prunes against).
    ///
    /// # Panics
    ///
    /// Panics if `i >= shard_count()`.
    pub fn synopsis(&self, i: usize) -> &ShardSynopsis {
        &self.shards[i].synopsis
    }

    // lint: hot-path — the sequential walks: a loop over the shared
    // step, accumulating each shard's global ids in shard order.
    /// Matches `event` against every shard in order (the sequential
    /// walk): afterwards [`MatchScratch::matched`] holds the global ids
    /// of every match, shard 0's first.
    pub fn match_event_into(&self, event: &Event, scratch: &mut MatchScratch) -> MatchStats {
        // Each step leaves one shard's global ids in `scratch.matched`;
        // `shard_matched` accumulates them and is swapped in at the
        // end — no allocation in steady state.
        let mut acc = std::mem::take(&mut scratch.shard_matched);
        acc.clear();
        let mut stats = MatchStats::default();
        for shard in &self.shards {
            stats = stats + shard.match_event(event, scratch);
            acc.extend_from_slice(&scratch.matched);
        }
        std::mem::swap(&mut scratch.matched, &mut acc);
        scratch.shard_matched = acc;
        debug_assert_eq!(scratch.matched.len(), stats.matched, "{UNTRANSLATED}");
        stats
    }

    /// Matches a batch shard-major — one [`Shard::match_batch`] visit
    /// per shard, as the broker's batch publish makes under one read
    /// lock per shard: afterwards [`BatchScratch::matched`] holds, per
    /// event, the ids [`ShardedEngine::match_event_into`] reports for
    /// it, in the same order. `skip` excludes events up front (empty:
    /// none); the stats count every other event the synopsis pruned,
    /// once per shard.
    pub fn match_batch(
        &self,
        events: &[Arc<Event>],
        skip: &[bool],
        batch: &mut BatchScratch,
    ) -> MatchStats {
        batch.begin_batch(events.len(), skip);
        let stats = self
            .shards
            .iter()
            .map(|shard| shard.match_batch(events, skip, batch))
            .fold(MatchStats::default(), |sum, shard| sum + shard);
        debug_assert_eq!(
            batch
                .matched
                .iter()
                .take(events.len())
                .map(Vec::len)
                .sum::<usize>(),
            stats.matched,
            "{UNTRANSLATED}"
        );
        stats
    }
    // lint: end-hot-path

    /// [`ShardedEngine::match_event_into`], with the per-shard matching
    /// fanned out across threads instead of walked sequentially — the
    /// intra-event parallel path for large engines, where per-publish
    /// latency otherwise grows linearly with the shard count.
    ///
    /// Shard 0 is matched inline on the calling thread (into the
    /// caller's `scratch`); every other shard runs on its own scoped
    /// thread with a warm scratch drawn from `scratches`. Results merge
    /// in **shard order**, so the matched ids in
    /// [`MatchScratch::matched`] and the summed [`MatchStats`] are
    /// bit-identical to the sequential [`ShardedEngine::match_event_into`]
    /// walk no matter how the workers interleave. With one shard this
    /// *is* the sequential walk.
    ///
    /// Because the engine is a plain borrowed value, the fan-out uses
    /// [`std::thread::scope`] (one short-lived thread per remote shard
    /// per call). The broker does not fan out — its publish is the
    /// sequential walk; this method is the self-contained parallel walk
    /// for standalone engines, tests and the benchmark's
    /// `core.shard.parallel_ns_per_event` row.
    // lint: hot-path — the standalone parallel matching walk: one
    // shared step per shard, merged in shard order.
    pub fn match_event_parallel(
        &self,
        event: &Event,
        scratches: &ScratchPool,
        scratch: &mut MatchScratch,
    ) -> MatchStats {
        if self.shards.len() == 1 {
            return self.match_event_into(event, scratch);
        }
        let mut remote: Vec<Option<(Option<PooledScratch<'_>>, MatchStats)>> =
            (1..self.shards.len()).map(|_| None).collect();
        let mut stats = std::thread::scope(|scope| {
            for (shard, slot) in self.shards[1..].iter().zip(remote.iter_mut()) {
                // A pruned shard contributes an empty result without
                // even leasing a scratch.
                scope.spawn(move || {
                    *slot =
                        Some(shard.match_event_with(event, |engine| scratches.checkout(engine)));
                });
            }
            // Shard 0 inline, into the caller's scratch.
            self.shards[0].match_event(event, scratch)
        });
        for slot in &mut remote {
            // lint: allow(panic-policy, reason = "scope join guarantees every spawned worker filled its slot")
            let (lease, shard_stats) = slot.take().expect("scoped worker fills its slot");
            stats = stats + shard_stats;
            if let Some(lease) = lease {
                scratch.matched.extend_from_slice(lease.matched());
            }
        }
        debug_assert_eq!(scratch.matched.len(), stats.matched, "{UNTRANSLATED}");
        stats
    }
    // lint: end-hot-path
}

/// On this single-owner engine every matched local id has a live
/// translation entry, so the step never drops one; the walks assert
/// the count in debug builds to keep a translation↔engine desync loud.
const UNTRANSLATED: &str = "matched locals hold live translation entries";

impl fmt::Debug for ShardedEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardedEngine")
            .field("shards", &self.shards.len())
            .field("subscriptions", &self.directory.live())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FulfilledSet, Matcher, MemoryUsage};

    fn ev(pairs: &[(&str, i64)]) -> Event {
        Event::from_pairs(pairs.iter().map(|(n, v)| (*n, *v)))
    }

    fn exprs(n: usize) -> Vec<Expr> {
        (0..n)
            .map(|i| {
                Expr::parse(&format!(
                    "(group = {} or boost = 1) and tick >= {}",
                    i % 5,
                    i
                ))
                .unwrap()
            })
            .collect()
    }

    #[test]
    fn global_ids_follow_arrival_order() {
        for shards in [1usize, 3, 8] {
            let mut engine = ShardedEngine::new(EngineKind::NonCanonical, shards);
            for n in 0..20 {
                let id = engine.subscribe(&exprs(20)[n]).unwrap();
                assert_eq!(id.index(), n, "shards={shards}");
            }
            assert_eq!(engine.directory().live(), 20);
        }
    }

    #[test]
    fn churn_free_placement_matches_round_robin() {
        let mut engine = ShardedEngine::new(EngineKind::Counting, 4);
        for e in exprs(10) {
            engine.subscribe(&e).unwrap();
        }
        let engine_counts: Vec<usize> = (0..4)
            .map(|i| engine.shard(i).subscription_count())
            .collect();
        assert_eq!(engine_counts, vec![3, 3, 2, 2]);
        assert_eq!(engine.directory().loads(), &[3, 3, 2, 2]);
    }

    #[test]
    fn drained_shard_is_refilled_first() {
        // The churn-skew regression: the old blind round-robin cursor
        // kept striding past a shard emptied by unsubscribes; the
        // least-loaded placement must refill it.
        let mut engine = ShardedEngine::new(EngineKind::NonCanonical, 4);
        let ids: Vec<_> = exprs(12)
            .iter()
            .map(|e| engine.subscribe(e).unwrap())
            .collect();
        // Shard 2 holds arrivals 2, 6, 10; drain it.
        for &i in &[2usize, 6, 10] {
            engine.unsubscribe(ids[i]).unwrap();
        }
        assert_eq!(engine.directory().loads(), &[3, 3, 0, 3]);
        for e in &exprs(15)[12..] {
            let id = engine.subscribe(e).unwrap();
            let (shard, _) = engine.directory().placement_of(id).unwrap();
            assert_eq!(shard, 2, "new subscriptions refill the drained shard");
        }
        assert_eq!(engine.directory().loads(), &[3, 3, 3, 3]);
    }

    #[test]
    fn matches_agree_with_unsharded_engine() {
        for kind in EngineKind::ALL {
            for shards in [1usize, 3] {
                let mut flat = Matcher::new(kind.build());
                let mut sharded = ShardedEngine::new(kind, shards);
                for e in exprs(16) {
                    let a = flat.subscribe(&e).unwrap();
                    let b = sharded.subscribe(&e).unwrap();
                    assert_eq!(a, b);
                }
                let mut scratch = MatchScratch::new();
                for t in 0..40 {
                    let event = ev(&[("group", t % 5), ("tick", t * 2)]);
                    let mut a = flat.match_event(&event).matched;
                    sharded.match_event_into(&event, &mut scratch);
                    let mut b = scratch.matched().to_vec();
                    a.sort_unstable();
                    b.sort_unstable();
                    assert_eq!(a, b, "kind={kind} shards={shards} t={t}");
                }
            }
        }
    }

    #[test]
    fn batch_agrees_with_per_event_walk_and_parallel_fanout() {
        // match_batch and the per-event walk must agree on ids (as
        // per-event sets) and on summed stats — including
        // shards_pruned, which the batch step accounts per (event,
        // shard) through the synopsis.
        for kind in EngineKind::ALL {
            for shards in [1usize, 3, 8] {
                let mut engine = ShardedEngine::new(kind, shards)
                    .with_placement(PlacementPolicy::ClusterByAttribute);
                for i in 0..48 {
                    let e = Expr::parse(&format!("g{} = 1 and seq >= {}", i % 8, i / 8)).unwrap();
                    engine.subscribe(&e).unwrap();
                }
                let events: Vec<Arc<Event>> = (0..150)
                    .map(|t| {
                        Arc::new(Event::from_pairs([
                            (format!("g{}", t % 8), 1i64),
                            ("seq".to_string(), (t % 7) as i64),
                        ]))
                    })
                    .collect();
                crate::engine::assert_walks_agree(
                    |events, batch| engine.match_batch(events, &[], batch),
                    |event, scratch| engine.match_event_into(event, scratch),
                    &events,
                    &format!("kind={kind} shards={shards}"),
                );
            }
        }
    }

    #[test]
    fn batch_skip_mask_composes_with_shard_pruning() {
        let mut engine = ShardedEngine::new(EngineKind::Counting, 4)
            .with_placement(PlacementPolicy::ClusterByAttribute);
        for i in 0..16 {
            let e = Expr::parse(&format!("g{} = 1", i % 4)).unwrap();
            engine.subscribe(&e).unwrap();
        }
        let events: Vec<Arc<Event>> = (0..8)
            .map(|t| Arc::new(Event::from_pairs([(format!("g{}", t % 4), 1i64)])))
            .collect();
        let skip = [false, true, false, true, false, true, false, true];
        let mut batch = BatchScratch::new();
        let stats = engine.match_batch(&events, &skip, &mut batch);
        assert_eq!(stats.batch_events, 4);
        for (e, &skipped) in skip.iter().enumerate() {
            assert_eq!(batch.matched(e).is_empty(), skipped, "event {e}");
        }
        // Each live event candidates one shard; the other 3 are pruned
        // per event (4 live events × 3 shards), and caller-skipped
        // events never count as pruned.
        assert_eq!(stats.shards_pruned, 12);
    }

    #[test]
    fn unsubscribe_routes_to_owning_shard() {
        let mut engine = ShardedEngine::new(EngineKind::NonCanonical, 3);
        let ids: Vec<_> = exprs(9)
            .iter()
            .map(|e| engine.subscribe(e).unwrap())
            .collect();
        engine.unsubscribe(ids[4]).unwrap();
        assert_eq!(engine.directory().live(), 8);
        assert_eq!(engine.directory().loads(), &[3, 2, 3]);
        // Stale and never-issued global ids fail in the global space.
        assert_eq!(
            engine.unsubscribe(ids[4]),
            Err(UnsubscribeError::UnknownSubscription(ids[4]))
        );
        let bogus = SubscriptionId::from_index(1000);
        assert_eq!(
            engine.unsubscribe(bogus),
            Err(UnsubscribeError::UnknownSubscription(bogus))
        );
        // The event for a removed subscription no longer matches it.
        let mut scratch = MatchScratch::new();
        engine.match_event_into(&ev(&[("group", 4), ("tick", 100)]), &mut scratch);
        assert!(!scratch.matched().contains(&ids[4]));
    }

    #[test]
    fn parallel_matching_is_identical_to_sequential() {
        let scratches = ScratchPool::new(8);
        for kind in EngineKind::ALL {
            for shards in [1usize, 3, 8] {
                let mut engine = ShardedEngine::new(kind, shards);
                let ids: Vec<_> = exprs(24)
                    .iter()
                    .map(|e| engine.subscribe(e).unwrap())
                    .collect();
                // Churn shard 0, so the parallel walk also exercises
                // reverse maps with retired entries.
                engine.unsubscribe(ids[0]).unwrap();
                engine.unsubscribe(ids[shards]).unwrap();
                let mut seq = MatchScratch::new();
                let mut par = MatchScratch::new();
                for t in 0..30 {
                    let event = ev(&[("group", t % 5), ("tick", t * 2)]);
                    let seq_stats = engine.match_event_into(&event, &mut seq);
                    let par_stats = engine.match_event_parallel(&event, &scratches, &mut par);
                    // Bit-identical: same ids in the same order, and
                    // the same reconciled stats.
                    assert_eq!(
                        seq.matched(),
                        par.matched(),
                        "kind={kind} shards={shards} t={t}"
                    );
                    assert_eq!(seq_stats, par_stats, "kind={kind} shards={shards} t={t}");
                }
            }
        }
    }

    #[test]
    fn the_step_summed_over_shards_is_every_walk() {
        // `Shard::match_event` looped by hand, the sequential walk and
        // the scoped fan-out are the same step: same ids in the same
        // order, same stats — `shards_pruned` included — on a stream
        // where clustering leaves some shards pruned and some not (the
        // `or`-rooted residents pin theirs as always-candidate).
        let scratches = ScratchPool::new(8);
        for kind in EngineKind::ALL {
            for shards in [1usize, 3, 8] {
                let mut engine = ShardedEngine::new(kind, shards)
                    .with_placement(PlacementPolicy::ClusterByAttribute);
                for i in 0..40 {
                    let text = if i % 10 == 0 {
                        format!("g{} = 1 or seq = {i}", i % 8)
                    } else {
                        format!("g{} = 1 and seq >= {}", i % 8, i / 8)
                    };
                    engine.subscribe(&Expr::parse(&text).unwrap()).unwrap();
                }
                let (mut by_hand, mut seq, mut par) = (
                    MatchScratch::new(),
                    MatchScratch::new(),
                    MatchScratch::new(),
                );
                let (mut pruned, mut visited) = (0, 0);
                for t in 0..60i64 {
                    let event =
                        Event::from_pairs([(format!("g{}", t % 8), 1), ("seq".into(), t % 7)]);
                    let mut ids = Vec::new();
                    let mut stats = MatchStats::default();
                    for s in 0..shards {
                        stats = stats + engine.shards[s].match_event(&event, &mut by_hand);
                        ids.extend_from_slice(by_hand.matched());
                    }
                    let seq_stats = engine.match_event_into(&event, &mut seq);
                    let par_stats = engine.match_event_parallel(&event, &scratches, &mut par);
                    let context = format!("kind={kind} shards={shards} t={t}");
                    assert_eq!(ids, seq.matched(), "{context}");
                    assert_eq!(ids, par.matched(), "{context}");
                    assert_eq!(stats, seq_stats, "{context}");
                    assert_eq!(stats, par_stats, "{context}");
                    pruned += stats.shards_pruned;
                    visited += shards - stats.shards_pruned;
                }
                assert!(visited > 0, "kind={kind} shards={shards}");
                assert_eq!(pruned > 0, shards > 1, "kind={kind} shards={shards}");
            }
        }
    }

    #[test]
    fn pruning_skips_zero_candidate_shards_and_preserves_matches() {
        // Clustered placement on a partitionable workload: every
        // subscription's dominant equality attribute names its group, so
        // each group lands on one shard and an event carrying a single
        // group attribute can candidate at most one shard (plus any
        // always-candidate shards — none here).
        let scratches = ScratchPool::new(8);
        for kind in EngineKind::ALL {
            let mut flat = Matcher::new(kind.build());
            let mut engine =
                ShardedEngine::new(kind, 8).with_placement(PlacementPolicy::ClusterByAttribute);
            for i in 0..64 {
                let e = Expr::parse(&format!("g{} = 1 and seq >= {}", i % 8, i / 8)).unwrap();
                let a = flat.subscribe(&e).unwrap();
                let b = engine.subscribe(&e).unwrap();
                assert_eq!(a, b, "arrival-order ids stay aligned");
            }
            let mut seq = MatchScratch::new();
            let mut par = MatchScratch::new();
            let mut pruned_total = 0usize;
            for g in 0..8i64 {
                let event = Event::from_pairs([(format!("g{g}"), 1i64), ("seq".to_string(), 3i64)]);
                let flat_ids = {
                    let mut ids = flat.match_event(&event).matched;
                    ids.sort_unstable();
                    ids
                };
                let seq_stats = engine.match_event_into(&event, &mut seq);
                let par_stats = engine.match_event_parallel(&event, &scratches, &mut par);
                assert_eq!(seq_stats, par_stats, "kind={kind} g={g}");
                let mut got = seq.matched().to_vec();
                got.sort_unstable();
                assert_eq!(got, flat_ids, "pruning changed the answer, kind={kind}");
                pruned_total += seq_stats.shards_pruned;
                assert!(
                    seq_stats.shards_pruned >= 7,
                    "clustering confines g{g} to one shard, kind={kind}: \
                     pruned only {}",
                    seq_stats.shards_pruned
                );
            }
            assert!(pruned_total > 0);
            // A flat engine never reports pruning.
            assert_eq!(
                flat.match_event(&ev(&[("g0", 1), ("seq", 3)]))
                    .stats
                    .shards_pruned,
                0
            );
        }
    }

    #[test]
    fn synopsis_tracks_churn() {
        let mut engine = ShardedEngine::new(EngineKind::NonCanonical, 3)
            .with_placement(PlacementPolicy::ClusterByAttribute);
        let exprs: Vec<Expr> = (0..18)
            .map(|i| Expr::parse(&format!("topic = {} and n >= {}", i % 6, i)).unwrap())
            .collect();
        let ids: Vec<_> = exprs.iter().map(|e| engine.subscribe(e).unwrap()).collect();
        for &i in &[1usize, 4, 9, 16] {
            engine.unsubscribe(ids[i]).unwrap();
        }

        // Every resident must still be covered by its shard's synopsis:
        // matching an event tailored to each surviving subscription
        // still finds it, with pruning active on every walk.
        let mut scratch = MatchScratch::new();
        for (i, (id, expr)) in ids.iter().zip(&exprs).enumerate() {
            if [1usize, 4, 9, 16].contains(&i) {
                continue;
            }
            let event = ev(&[("topic", (i % 6) as i64), ("n", i as i64)]);
            engine.match_event_into(&event, &mut scratch);
            assert!(
                scratch.matched().contains(id),
                "survivor {i} lost to over-pruning: {expr}"
            );
        }
        // And the synopsis live counts reconcile with the directory.
        let live: usize = (0..engine.shard_count())
            .map(|s| engine.synopsis(s).live())
            .sum();
        assert_eq!(live, engine.directory().live());
    }

    #[test]
    fn disjunctive_subscriptions_keep_every_shard_candidate() {
        // Top-level `or` defeats per-attribute summarisation; the
        // synopsis must fall back to always-candidate rather than
        // guess — conservativeness over pruning power.
        let mut engine = ShardedEngine::new(EngineKind::NonCanonical, 4);
        for i in 0..8 {
            engine
                .subscribe(&Expr::parse(&format!("a = {i} or b = {i}")).unwrap())
                .unwrap();
        }
        let mut scratch = MatchScratch::new();
        let stats = engine.match_event_into(&ev(&[("zzz", 99)]), &mut scratch);
        assert_eq!(
            stats.shards_pruned, 0,
            "or-rooted residents pin their shard"
        );
    }

    #[test]
    fn empty_shards_are_always_pruned() {
        let mut engine = ShardedEngine::new(EngineKind::Counting, 4);
        engine.subscribe(&Expr::parse("k = 1").unwrap()).unwrap();
        let mut scratch = MatchScratch::new();
        let stats = engine.match_event_into(&ev(&[("k", 1)]), &mut scratch);
        assert_eq!(stats.matched, 1);
        assert_eq!(stats.shards_pruned, 3, "three empty shards skipped");
    }

    #[test]
    fn parallel_matching_merges_in_shard_order_despite_stalls() {
        use std::sync::atomic::{AtomicBool, Ordering};

        // Shard 0 runs inline and is forced to finish *after* the
        // remote shards by a spin gate inside its phase 1; the merge
        // must still put shard 0's ids first.
        struct GatedEngine {
            inner: Box<dyn FilterEngine + Send + Sync>,
            wait_for: Option<Arc<AtomicBool>>,
            announce: Option<Arc<AtomicBool>>,
        }

        impl FilterEngine for GatedEngine {
            fn kind(&self) -> EngineKind {
                self.inner.kind()
            }
            fn subscribe(&mut self, expr: &Expr) -> Result<SubscriptionId, SubscribeError> {
                self.inner.subscribe(expr)
            }
            fn unsubscribe(&mut self, id: SubscriptionId) -> Result<(), UnsubscribeError> {
                self.inner.unsubscribe(id)
            }
            fn expression(&self, id: SubscriptionId) -> Option<Expr> {
                self.inner.expression(id)
            }
            fn phase1(&self, event: &Event, out: &mut FulfilledSet) {
                if let Some(gate) = &self.wait_for {
                    while !gate.load(Ordering::Acquire) {
                        std::hint::spin_loop();
                    }
                }
                self.inner.phase1(event, out);
                if let Some(flag) = &self.announce {
                    flag.store(true, Ordering::Release);
                }
            }
            fn phase2(
                &self,
                fulfilled: &FulfilledSet,
                scratch: &mut MatchScratch,
                matched: &mut Vec<SubscriptionId>,
            ) -> MatchStats {
                self.inner.phase2(fulfilled, scratch, matched)
            }
            fn subscription_count(&self) -> usize {
                self.inner.subscription_count()
            }
            fn subscription_id_bound(&self) -> usize {
                self.inner.subscription_id_bound()
            }
            fn registered_units(&self) -> usize {
                self.inner.registered_units()
            }
            fn unit_slot_bound(&self) -> usize {
                self.inner.unit_slot_bound()
            }
            fn predicate_count(&self) -> usize {
                self.inner.predicate_count()
            }
            fn predicate_universe(&self) -> usize {
                self.inner.predicate_universe()
            }
            fn memory_usage(&self) -> MemoryUsage {
                self.inner.memory_usage()
            }
        }

        let remote_done = Arc::new(AtomicBool::new(false));
        let mut engine = ShardedEngine::from_engines(vec![
            Box::new(GatedEngine {
                inner: EngineKind::NonCanonical.build(),
                wait_for: Some(remote_done.clone()),
                announce: None,
            }),
            Box::new(GatedEngine {
                inner: EngineKind::NonCanonical.build(),
                wait_for: None,
                announce: Some(remote_done.clone()),
            }),
        ]);
        let a = engine.subscribe(&Expr::parse("hit = 1").unwrap()).unwrap(); // shard 0
        let b = engine.subscribe(&Expr::parse("hit = 1").unwrap()).unwrap(); // shard 1
        let scratches = ScratchPool::new(2);
        let mut scratch = MatchScratch::new();
        let stats = engine.match_event_parallel(&ev(&[("hit", 1)]), &scratches, &mut scratch);
        // Shard 1 provably finished first (it opened the gate shard 0
        // spins on), yet the merge is still shard 0 then shard 1.
        assert_eq!(scratch.matched(), &[a, b]);
        assert_eq!(stats.matched, 2);
    }

    #[test]
    fn a_stale_global_id_cannot_unsubscribe_a_reissued_local_slot() {
        let a = Expr::parse("a = 1").unwrap();
        let b = Expr::parse("b = 2").unwrap();
        // One directory slot under two generations.
        let g = SubscriptionId::from_parts(0, 5);
        let g_next = SubscriptionId::from_parts(1, 5);
        for kind in EngineKind::ALL {
            let mut shard = Shard::new(kind.build());
            let local = shard.engine_mut().subscribe(&a).unwrap();
            assert_eq!(local, SubscriptionId::from_index(0));
            shard.bind(local, g, &a);
            assert!(shard.unsubscribe(local, g));
            let reissued = shard.engine_mut().subscribe(&b).unwrap();
            assert_eq!(reissued, local, "{kind}: local 0 is reissued");
            shard.bind(reissued, g_next, &b);
            // A late unsubscribe of A finds local 0 owned by B.
            assert!(!shard.unsubscribe(local, g), "{kind}: stale pair");
            assert_eq!(shard.engine().subscription_count(), 1, "{kind}");
            let mut scratch = MatchScratch::new();
            shard.match_event(&ev(&[("b", 2)]), &mut scratch);
            assert_eq!(scratch.matched(), [g_next], "{kind}");
            shard.match_event(&ev(&[("a", 1)]), &mut scratch);
            assert!(scratch.matched().is_empty(), "{kind}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        let _ = ShardedEngine::new(EngineKind::NonCanonical, 0);
    }
}
