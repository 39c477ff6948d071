//! The control plane, driven by the caller: live migration, count- and
//! frequency-based rebalancing, live resize and the slow-consumer
//! quarantine tick. Each entry point runs one bounded step under the
//! maintenance lock; the broker runs none of them on its own.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use boolmatch_core::SubscriptionId;

use super::{Broker, ShardCell};
use crate::delivery::TickOutcome;

/// Absolute per-tick match-delta floor below which
/// [`Broker::rebalance_by_match_frequency`] treats shard hit skew as
/// noise and moves nothing.
pub const MATCH_FREQUENCY_SKEW_FLOOR: u64 = 16;

/// What one [`Broker::delivery_maintenance_tick`] changed; all zeros
/// when quarantine is not configured or every subscriber was steady.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeliveryTickReport {
    /// Subscribers newly quarantined this tick (queue capped), not
    /// counting auto-disconnects.
    pub demoted: usize,
    /// Quarantined subscribers released this tick.
    pub recovered: usize,
    /// Subscribers disconnected this tick
    /// ([`QuarantineConfig::auto_disconnect`](crate::QuarantineConfig::auto_disconnect)).
    pub disconnected: usize,
}

/// How one `migrate_between` call decides to keep moving.
#[derive(Clone, Copy, PartialEq, Eq)]
enum MigrateMode {
    /// Stop when the pair's subscription counts are balanced
    /// (`load(from) ≤ load(to) + 1`).
    Balance,
    /// Stop only when the source would drop to zero subscriptions —
    /// the frequency-weighted rebalancer deliberately unbalances
    /// counts to balance match load.
    Frequency,
    /// Move everything — shard draining during a shrink.
    Drain,
}

/// The decayed match-frequency window
/// [`Broker::rebalance_by_match_frequency`] plans from: `baseline` is
/// the raw per-shard counter snapshot the next tick diffs against,
/// `scores` the exponentially decayed per-tick deltas (each tick halves
/// the running score before adding the fresh delta). Scoring a decayed
/// window instead of the raw last-tick delta keeps one anomalous
/// interval from dominating the plan while sustained skew still
/// accumulates; after any tick that migrated, the scores are reset so
/// the next window measures the *new* placement rather than echoes of
/// the one just fixed.
#[derive(Default)]
pub(super) struct FreqWindow {
    baseline: Vec<u64>,
    scores: Vec<u64>,
}

impl FreqWindow {
    /// Forgets everything — the next tick re-arms from scratch
    /// (resize must not compare counters across shard sets).
    fn clear(&mut self) {
        self.baseline.clear();
        self.scores.clear();
    }
}

impl Broker {
    /// Live-migrates up to `max_moves` subscriptions from the currently
    /// most-loaded to the currently least-loaded shard, one batch of
    /// shard-lock acquisitions per skewed pair. Each move re-subscribes
    /// the expression the source engine gives back
    /// ([`FilterEngine::expression`](boolmatch_core::FilterEngine::expression)) on the target shard, retires the
    /// source entry and repoints the directory — the subscription's id,
    /// handle and delivery stream are untouched, and matching continues
    /// on every shard not in the migrating pair (see
    /// `tests/rebalance.rs` for the deterministic lock-level proof).
    /// Returns the number of subscriptions moved.
    ///
    /// Stops early when the loads are balanced (spread ≤ 1) or a target
    /// engine refuses an expression (possible only with heterogeneous
    /// [`BrokerBuilder::engine_instances`](super::BrokerBuilder::engine_instances); the subscription stays
    /// put).
    ///
    /// **Visibility window:** an event whose publish races a migration
    /// may observe the moving subscription as momentarily absent — the
    /// same anomaly as an event racing an unsubscribe+resubscribe —
    /// and is delivered to it at most once (never twice; publish
    /// deduplicates matched ids). Events published after `migrate`
    /// returns always see the subscription at its new placement.
    // lint: lock-order — migration/rebalance/resize hold multiple
    // shard locks (ascending index order only: the `(lo, hi)` idiom)
    // and consult the directory innermost (no shard acquisition while
    // a directory guard is live).
    pub fn migrate(&self, max_moves: usize) -> usize {
        let _maintenance = self.inner.maintenance.lock();
        // Bound how long one lock acquisition of the shard pair is
        // held: a large drain (rebalance() on a heavily skewed broker)
        // is chunked, releasing and re-acquiring the pair's write
        // locks between chunks so publishers reaching those shards are
        // stalled for at most one chunk, not the whole drain.
        const MIGRATE_CHUNK: usize = 64;
        let set = self.shard_set();
        let mut moved = 0;
        while moved < max_moves {
            let Some((from, to)) = self.inner.directory.read().skew_pair() else {
                break;
            };
            let step = self.migrate_between(
                &set,
                from,
                to,
                (max_moves - moved).min(MIGRATE_CHUNK),
                MigrateMode::Balance,
            );
            if step == 0 {
                break;
            }
            moved += step;
        }
        moved
    }

    /// [`Broker::migrate`] until the per-shard loads are as even as
    /// they can be: afterwards `max(load) − min(load) ≤ 1` (unless a
    /// heterogeneous target shard refused a move). Returns the number
    /// of subscriptions moved.
    pub fn rebalance(&self) -> usize {
        self.migrate(usize::MAX)
    }

    /// One frequency-weighted rebalance tick: compares each shard's
    /// match counter against the last tick's snapshot and live-migrates
    /// up to `max_moves` subscriptions from the shard with the highest
    /// match delta to the one with the lowest — evening out observed
    /// **match load**, not subscription counts. Returns the number of
    /// subscriptions moved (0 when the skew is within
    /// [`MATCH_FREQUENCY_SKEW_FLOOR`], when the hot shard has a single
    /// subscription, or on the re-arming call after a resize changed
    /// the shard set).
    ///
    /// The broker runs no tick on its own: the caller decides when, as
    /// with [`Broker::delivery_maintenance_tick`].
    pub fn rebalance_by_match_frequency(&self, max_moves: usize) -> usize {
        let _maintenance = self.inner.maintenance.lock();
        let set = self.shard_set();
        if set.len() < 2 {
            return 0;
        }
        let hits: Vec<u64> = set
            .iter()
            .map(|cell| cell.hits.load(Ordering::Relaxed))
            .collect();
        let scores: Vec<u64> = {
            let mut window = self.inner.freq_baseline.lock();
            let FreqWindow { baseline, scores } = &mut *window;
            if baseline.len() != hits.len() {
                // The shard set changed since the last tick: re-arm and
                // measure a fresh interval instead of comparing
                // counters across unrelated cells.
                *baseline = hits;
                *scores = vec![0; baseline.len()];
                return 0;
            }
            for ((score, hit), base) in scores.iter_mut().zip(&hits).zip(baseline.iter()) {
                // Exponential decay: halve the running score, then add
                // this tick's delta. Saturating: a shrink+grow can put
                // a fresh cell (with a zeroed counter) at an index
                // that had history.
                *score = *score / 2 + hit.saturating_sub(*base);
            }
            *baseline = hits;
            scores.clone()
        };
        let mut hot = 0;
        let mut cool = 0;
        for (i, &score) in scores.iter().enumerate() {
            if score > scores[hot] {
                hot = i;
            }
            if score < scores[cool] {
                cool = i;
            }
        }
        // Act only on real skew: the hot shard's windowed score must
        // out-match the cool one's by 2× plus an absolute floor, and
        // the hot shard must keep at least one subscription.
        if hot == cool
            || scores[hot] < 2 * scores[cool] + MATCH_FREQUENCY_SKEW_FLOOR
            || self.inner.directory.read().load(hot) <= 1
        {
            return 0;
        }
        let moved = self.migrate_between(&set, hot, cool, max_moves, MigrateMode::Frequency);
        if moved > 0 {
            // The placement just changed: the decayed scores describe
            // the pre-migration world. Reset them (keeping the raw
            // baseline) so the next window measures the new placement
            // instead of re-migrating on stale echoes.
            let mut window = self.inner.freq_baseline.lock();
            window.scores.iter_mut().for_each(|s| *s = 0);
        }
        moved
    }

    /// One migration batch between a fixed shard pair, bounded by
    /// `cap` moves: both shard locks are taken once (in ascending index
    /// order — the broker-wide discipline that keeps concurrent
    /// migrations deadlock-free) and held while subscriptions move,
    /// with `mode` deciding when the pair is done.
    fn migrate_between(
        &self,
        set: &[Arc<ShardCell>],
        from: usize,
        to: usize,
        cap: usize,
        mode: MigrateMode,
    ) -> usize {
        debug_assert_ne!(from, to);
        let (lo, hi) = (from.min(to), from.max(to));
        let lo_guard = set[lo].state.write();
        let hi_guard = set[hi].state.write();
        let (mut from_state, mut to_state) = if from < to {
            (lo_guard, hi_guard)
        } else {
            (hi_guard, lo_guard)
        };
        let mut moved = 0;
        while moved < cap {
            {
                // Re-plan every step against the live directory:
                // concurrent unsubscribes (which never need these shard
                // locks to retire an entry) may have rebalanced the
                // pair already.
                let directory = self.inner.directory.read();
                let done = match mode {
                    MigrateMode::Balance => directory.load(from) <= directory.load(to) + 1,
                    MigrateMode::Frequency => directory.load(from) <= 1,
                    MigrateMode::Drain => false,
                };
                if done {
                    break;
                }
            }
            // The victim comes from the source shard's own translation
            // map (we hold its write lock, so the map cannot move under
            // us); the directory is then consulted only to confirm the
            // entry is still live.
            let Some((global, local)) = from_state.translation().last_resident() else {
                break;
            };
            let live = matches!(
                self.inner.directory.read().placement_of(global),
                Some((shard, at)) if shard == from && at == local
            );
            if !live {
                // A racing unsubscribe retired the entry directory-first
                // and is now parked on this shard's write lock (which we
                // hold). Complete the shard-side removal on its behalf;
                // its own stale-cell guard then finds the slot gone and
                // skips. Not a migration — re-plan.
                let released = from_state.unsubscribe(local, global);
                debug_assert!(released);
                continue;
            }
            // Under the source shard's write lock the registration
            // cannot change, so its engine gives back the expression
            // it holds: the only copy there is.
            let expr = from_state
                .engine()
                .expression(local)
                .expect("a resident local id is registered in its engine");
            let Ok(new_local) = to_state.engine_mut().subscribe(&expr) else {
                // A heterogeneous target refused the expression. For
                // balancing that just means the subscription stays put
                // — but a drain has nowhere else to leave it, and
                // silently retrying would spin forever on the same
                // refusal: honour `resize`'s documented panic instead.
                assert!(
                    mode != MigrateMode::Drain,
                    "a surviving shard refused a drained subscription"
                );
                break;
            };
            let relocated = {
                let mut directory = self.inner.directory.write();
                let relocated = directory.relocate(global, from, local, to, new_local);
                if relocated {
                    // Bumped inside the directory critical section: a
                    // racing publish that translated the moved
                    // subscription on both shards is then guaranteed to
                    // observe the bumped epoch on its post-match check
                    // and dedup; a failed relocate changed no mapping,
                    // so it bumps nothing and forces no spurious sorts.
                    self.inner.migration_epoch.fetch_add(1, Ordering::Release);
                    // Counted here too, so whoever reads the moved load
                    // through the directory lock also reads the count.
                    self.inner
                        .stats
                        .subscriptions_migrated
                        .fetch_add(1, Ordering::Relaxed);
                }
                relocated
            };
            if relocated {
                let released = from_state.unsubscribe(local, global);
                debug_assert!(released, "relocated entries were resident");
                to_state.bind(new_local, global, &expr);
                moved += 1;
            } else {
                // The victim was retired between planning and commit;
                // undo the target-side copy and re-plan (the next
                // iteration's placement check completes the
                // source-side removal).
                to_state
                    .engine_mut()
                    .unsubscribe(new_local)
                    .expect("the fresh target copy is removable");
            }
        }
        moved
    }

    /// Grows or shrinks the broker to `new_shards` engine shards,
    /// **live**: publishes, subscribes and unsubscribes keep flowing
    /// throughout, and no subscription changes its id, handle or
    /// delivery stream. Returns the number of subscriptions migrated
    /// (growing moves none — new shards start empty; follow with
    /// [`Broker::rebalance`] to spread load onto them).
    ///
    /// The shard/lock array itself is replaced behind an **epoch
    /// swap**: surviving shards keep their cells (lock, translation
    /// map, match counters — publishes holding the old epoch finish
    /// against the same cells), a grow appends fresh engines of the
    /// build-time kind, and a shrink first restricts placement to the
    /// survivors, drains each dying shard via live migration, and only
    /// then swaps the dying cells out.
    ///
    /// # Panics
    ///
    /// Panics if `new_shards` is zero, or if a surviving shard refuses
    /// a drained subscription (possible only with heterogeneous
    /// [`BrokerBuilder::engine_instances`](super::BrokerBuilder::engine_instances)).
    pub fn resize(&self, new_shards: usize) -> usize {
        assert!(new_shards > 0, "a broker needs at least one engine shard");
        let _maintenance = self.inner.maintenance.lock();
        let old_set = self.shard_set();
        let old = old_set.len();
        let mut moved = 0;
        if new_shards == old {
            return 0;
        }
        if new_shards > old {
            let mut shards = old_set.to_vec();
            for index in old..new_shards {
                shards.push(Arc::new(ShardCell::new(
                    self.inner.grow_kind.build(),
                    index,
                )));
            }
            // Swap first, then grow the directory: a placement can only
            // choose the new shards after the directory grows, and any
            // thread that observes the grown directory also observes
            // the swapped set (both handed off through the locks in
            // that order).
            *self.inner.shard_set.write() = shards.into();
            let mut directory = self.inner.directory.write();
            for _ in old..new_shards {
                directory.add_shard();
            }
        } else {
            // Shrink. 1: no new subscription may land on a dying shard
            // from here on.
            self.inner.directory.write().restrict_placement(new_shards);
            // 2: drain every dying shard onto the survivors via live
            // migration, spreading chunk by chunk (least-loaded target
            // per chunk). A dying shard's load can briefly exceed its
            // residents — an in-flight subscribe placed there before
            // the restriction commits moments later — so the drain
            // loops until the directory agrees the shard is empty.
            const DRAIN_CHUNK: usize = 64;
            for dying in (new_shards..old).rev() {
                loop {
                    let drained = {
                        let directory = self.inner.directory.read();
                        directory.load(dying) == 0
                    } && old_set[dying].state.read().translation().is_empty();
                    if drained {
                        break;
                    }
                    let to = {
                        let mut directory = self.inner.directory.write();
                        let to = directory.place_among(new_shards);
                        directory.cancel(to); // relocate moves the load itself
                        to
                    };
                    let step =
                        self.migrate_between(&old_set, dying, to, DRAIN_CHUNK, MigrateMode::Drain);
                    moved += step;
                    if step == 0 {
                        // Nothing movable yet (in-flight reservation):
                        // let the subscriber commit or cancel.
                        std::thread::yield_now();
                    }
                }
            }
            // 3: swap the dying cells out of the epoch; publishes still
            // holding the old set match empty engines there.
            *self.inner.shard_set.write() = old_set[..new_shards].into();
            // 4: shrink the directory to match.
            let mut directory = self.inner.directory.write();
            for _ in new_shards..old {
                directory.remove_last_shard();
            }
        }
        // Frequency ticks must not compare counters across shard sets.
        self.inner.freq_baseline.lock().clear();
        moved
    }
    // lint: end-lock-order

    /// One slow-consumer quarantine tick: every subscriber's lag is
    /// checked against the configured [`QuarantineConfig`](crate::QuarantineConfig) — consumers
    /// over the watermark accumulate strikes toward demotion (queue
    /// capped, or closed under
    /// [`auto_disconnect`](crate::QuarantineConfig::auto_disconnect));
    /// quarantined consumers that drained accumulate strikes toward
    /// release. A no-op unless [`BrokerBuilder::quarantine`](super::BrokerBuilder::quarantine) was set.
    ///
    /// The broker runs no tick on its own: the caller decides when.
    /// Ticks serialize with migration/resize on the maintenance lock.
    /// Subscribes and unsubscribes may still run during a tick: the
    /// `senders` read guard only pins the map, and each queue is judged
    /// under its own lock.
    pub fn delivery_maintenance_tick(&self) -> DeliveryTickReport {
        let Some(config) = self.inner.quarantine else {
            return DeliveryTickReport::default();
        };
        let _maintenance = self.inner.maintenance.lock();
        let mut report = DeliveryTickReport::default();
        let mut to_disconnect: Vec<SubscriptionId> = Vec::new();
        {
            // Lock order: `senders` read → per-queue leaf locks, one at
            // a time (never two queues at once).
            let senders = self.inner.senders.read();
            for (id, queue) in senders.iter() {
                match queue.maintenance_tick(&config) {
                    TickOutcome::Steady => {}
                    TickOutcome::Demoted => report.demoted += 1,
                    TickOutcome::Recovered => report.recovered += 1,
                    TickOutcome::Disconnect => {
                        report.disconnected += 1;
                        to_disconnect.push(*id);
                    }
                }
            }
        }
        // Unsubscribing takes the sender-map write lock — strictly
        // after the read guard above is gone.
        for id in to_disconnect {
            self.inner.unsubscribe(id);
        }
        let stats = &self.inner.stats;
        let demotions = (report.demoted + report.disconnected) as u64;
        if demotions > 0 {
            stats
                .subscribers_quarantined
                .fetch_add(demotions, Ordering::Relaxed);
        }
        if report.recovered > 0 {
            stats
                .quarantine_recoveries
                .fetch_add(report.recovered as u64, Ordering::Relaxed);
        }
        report
    }
}
