//! Subscription routing for the sharded matching core: the write-side
//! [`SubscriptionDirectory`] placement table and the per-shard
//! [`ShardTranslation`] reverse maps matching reads.
//!
//! Through PR 3 the global ↔ `(shard, local)` subscription mapping was
//! pure arithmetic — stride interleaving, `global = local·S + shard`.
//! PR 4 replaced the arithmetic with one broker-global indirection
//! table so ids could stay stable while placement moved (live
//! migration, resizing) — but that table then sat on the publish hot
//! path: every publish took the directory's read lock, per shard per
//! event, just to translate matched local ids. This module is the
//! split that takes it back off:
//!
//! * [`SubscriptionDirectory`] is now **write-side only**: the slot map
//!   from global subscription id to `(shard, local)` placement, the
//!   free list, the per-shard load counts placement plans against, and
//!   the placement cursor. It keeps no expression: live migration asks
//!   the source shard's engine for it
//!   ([`FilterEngine::expression`](crate::FilterEngine::expression)).
//!   It is touched by subscribe, unsubscribe, migration and resizing —
//!   never by matching.
//! * [`ShardTranslation`] is the **read-side** local → global reverse
//!   map, one per shard, owned next to that shard's engine and read
//!   under the shard's own lock. Matching translates its matched local
//!   ids through the shard it just matched — no shared state beyond
//!   the lock it already holds. Registration and migration update only
//!   the (one or two) involved shards' maps.
//! * Global ids are **generation-tagged** ([`crate::SubscriptionId`]
//!   packs `generation ⊕ slot`): the directory reissues a retired slot
//!   under its next generation, so the id table follows the live set
//!   and a stale id can never alias the slot's new owner.

use std::sync::Arc;

use boolmatch_expr::Expr;

use crate::memory::reserve_tight;
use crate::synopsis::{attribute_hash, dominant_eq_attr};
use crate::SubscriptionId;

pub mod lock_classes {
    //! The canonical [lockdep](parking_lot::lockdep) class names for the
    //! sharded matching core and the broker built on it — the single place
    //! the locking discipline's vocabulary is spelled, so the class a lock
    //! registers under and the class the docs/lint talk about cannot
    //! drift apart.
    //!
    //! The discipline (checked at runtime by the debug-build lockdep in the
    //! `parking_lot` shim, and statically by `invariant-lint`):
    //!
    //! * [`MAINTENANCE`] is outermost — one control-plane operation at a
    //!   time.
    //! * [`shard`]`(i)` locks nest only in ascending index order.
    //! * [`DIRECTORY`] is innermost — acquired only while holding at most
    //!   shard locks, never the other way around.
    //! * [`POOL`], [`SENDERS`] and [`DELIVERY_READY`] are leaves: never
    //!   held across another classed acquisition (pool slots are
    //!   `try_lock`-only on the hot path; the senders map is read during
    //!   delivery holding nothing else; the ready list is appended to and
    //!   popped holding nothing else).

    /// The write-side placement directory — innermost.
    pub const DIRECTORY: &str = "directory";
    /// The broker's control-plane serialization lock — outermost.
    pub const MAINTENANCE: &str = "maintenance";
    /// Worker/scratch/fan-out pool slot locks — leaf, try-lock on the
    /// hot path.
    pub const POOL: &str = "pool";
    /// The broker's subscriber-sender map — leaf, read during delivery.
    pub const SENDERS: &str = "senders";
    /// The broker's delivery ready list — leaf, taken once per chunk of
    /// newly scheduled consumer queues by a publisher and once per
    /// popped queue by a drainer. Spelled like the broker field it
    /// classes, which the lint bans on the hot path.
    pub const DELIVERY_READY: &str = "delivery_ready";
    /// Per-subscriber delivery queues share [`DELIVERY_QUEUE_GROUPS`]
    /// lock classes (grouped by subscription-id slot) instead of one
    /// class per queue: lockdep's graph stays small while same-class
    /// nesting inside a group still catches any path that ever holds
    /// two queue locks at once — no broker path may.
    pub const DELIVERY_QUEUE_GROUPS: usize = 8;
    /// The class name for shard `index`'s state lock; ascending-index
    /// nesting only.
    pub fn shard(index: usize) -> String {
        format!("shard[{index}]")
    }
    /// The class name for the delivery-queue group a subscription id
    /// slot falls in — a leaf below the sender-map read lock: enqueue
    /// and drain take exactly one queue lock and nothing under it.
    pub fn delivery_queue(slot: usize) -> String {
        format!("delivery-queue[{}]", slot % DELIVERY_QUEUE_GROUPS)
    }
}

/// Reverse-map sentinel: this local slot holds no live subscription.
/// `u64::MAX` is unreachable as a packed id (slot `u32::MAX` is never
/// issued — see [`SubscriptionDirectory::issue`]).
const NO_GLOBAL: u64 = u64::MAX;

/// Subscriptions a clustered shard may hold beyond twice its fair share
/// before [`SubscriptionDirectory::place_clustered`] falls back to
/// least-loaded placement. The slack lets clusters form on a young
/// (near-empty) directory, where the fair share rounds to zero.
const CLUSTER_LOAD_SLACK: usize = 8;

/// How a sharded engine or broker picks the shard a new subscription
/// lands on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum PlacementPolicy {
    /// Least-loaded shard, ties broken round-robin — the default, and
    /// the policy every pre-existing load-balance guarantee is stated
    /// against. See [`SubscriptionDirectory::place`].
    #[default]
    LeastLoaded,
    /// Route each subscription to the shard specialised in its
    /// **dominant equality attribute** (deterministic hash of the
    /// attribute name), falling back to least-loaded when the
    /// subscription has no required equality conjunct or the preferred
    /// shard is over the load cap. Co-locating similar subscriptions is
    /// what makes synopsis pruning effective: events touching one
    /// attribute population then admit one or two shards instead of
    /// all of them. See [`SubscriptionDirectory::place_clustered`].
    ClusterByAttribute,
}

/// Where one live subscription currently lives.
#[derive(Debug, Clone)]
struct Placement {
    shard: u32,
    local: u32,
}

/// One global-id slot: the generation it is currently on, plus the
/// placement when live — 16 bytes, one per slot up to the peak live
/// count.
#[derive(Debug, Clone, Default)]
struct Slot {
    /// Bumped on every retire, so the slot's next reissue is tagged
    /// with a generation no prior holder of this slot ever saw.
    generation: u32,
    placement: Option<Placement>,
}

/// The write-side placement directory of a sharded engine or broker:
/// global subscription id → `(shard, local id)` placement, with a free
/// list of retired slots and the per-shard load counts placement and
/// rebalancing plan against. It stores no expression; the engine a
/// subscription lives in gives it back when a migration needs it.
///
/// The directory is deliberately **not** on the matching path: matched
/// local ids are translated through each shard's own
/// [`ShardTranslation`], which lives with the shard and is read under
/// the shard's existing lock. Only subscribe / unsubscribe / migrate /
/// resize touch the directory.
///
/// # Id-stability contract
///
/// A subscription's **global id never changes** while it is registered:
/// [`SubscriptionDirectory::relocate`] (live migration) and shard-count
/// changes rewrite only the placement behind the id. Commit takes the
/// most recently retired slot from the free list, else appends one, so
/// the table follows the peak live count rather than every
/// subscription ever made. A reissued slot carries its next generation
/// ([`SubscriptionId::generation`]), so ids from earlier occupancies of
/// the slot stay distinguishable — and rejectable — forever.
///
/// # Placement protocol
///
/// Registration is a two-step dance so callers can run the engine's own
/// `subscribe` (which may fail) between the steps without the
/// directory lock held:
///
/// 1. [`SubscriptionDirectory::place`] picks the least-loaded shard and
///    **reserves** a unit of load on it (so concurrent placers spread
///    out instead of dog-piling the same shard);
/// 2. [`SubscriptionDirectory::issue`] records the engine-assigned
///    local id and issues the global id — or
///    [`SubscriptionDirectory::cancel`] releases the reservation when
///    the engine refused the subscription.
///
/// The caller then records the issued id in the owning shard's
/// [`ShardTranslation`] (under that shard's lock, when there is one).
///
/// # Examples
///
/// ```
/// use boolmatch_core::{ShardTranslation, SubscriptionDirectory, SubscriptionId};
///
/// let mut dir = SubscriptionDirectory::new(2);
/// let mut translation = ShardTranslation::new(); // shard 0's map
/// let shard = dir.place(); // least-loaded; empty directory → shard 0
/// let local = SubscriptionId::from_index(0);
/// let global = dir.issue(shard, local);
/// translation.set(local, global);
/// assert_eq!(global.slot(), 0); // the first slot of an empty table
/// assert_eq!(dir.placement_of(global), Some((0, local)));
/// assert_eq!(translation.global_of(local), Some(global));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct SubscriptionDirectory {
    /// Global id slot → generation + placement; a `None` placement
    /// marks a retired (free-listed) slot.
    slots: Vec<Slot>,
    /// Retired slot indexes, most recently retired last; `issue`
    /// reissues from the end.
    free: Vec<u32>,
    /// Per-shard live subscription count, **including** placements
    /// reserved by [`SubscriptionDirectory::place`] but not yet
    /// committed.
    loads: Vec<usize>,
    /// Placement limit: [`SubscriptionDirectory::place`] only chooses
    /// shards `0..active`. Equal to the shard count except while a
    /// shrink is draining dying shards
    /// ([`SubscriptionDirectory::restrict_placement`]).
    active: usize,
    /// Round-robin tie-break cursor for [`SubscriptionDirectory::place`].
    cursor: usize,
    /// Committed live subscriptions (excludes reservations).
    live: usize,
}

impl SubscriptionDirectory {
    /// An empty directory over `shards` shards.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(shards: usize) -> Self {
        assert!(shards > 0, "a sharded engine needs at least one shard");
        SubscriptionDirectory {
            slots: Vec::new(),
            free: Vec::new(),
            loads: vec![0; shards],
            active: shards,
            cursor: 0,
            live: 0,
        }
    }

    /// Number of shards placements route over.
    pub fn shard_count(&self) -> usize {
        self.loads.len()
    }

    /// Committed live subscriptions.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Per-shard load (live subscriptions plus uncommitted
    /// reservations), indexed by shard.
    pub fn loads(&self) -> &[usize] {
        &self.loads
    }

    /// One shard's load; see [`SubscriptionDirectory::loads`].
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn load(&self, shard: usize) -> usize {
        self.loads[shard]
    }

    /// Exclusive upper bound of the issued global **slot** space
    /// (including retired slots). Scratch stamp arrays can be sized
    /// against this; note a reissued id's full
    /// [`SubscriptionId::index`] also carries the generation in its
    /// high bits and must not be used as an array index.
    pub fn id_bound(&self) -> usize {
        self.slots.len()
    }

    /// The `(most loaded, least loaded)` shard pair a count-balancing
    /// rebalancer should move a subscription between, or `None` when
    /// already balanced. Ties break to the lowest shard index, so
    /// planning is deterministic.
    pub fn skew_pair(&self) -> Option<(usize, usize)> {
        let mut max_i = 0;
        let mut min_i = 0;
        for (i, &load) in self.loads.iter().enumerate() {
            if load > self.loads[max_i] {
                max_i = i;
            }
            if load < self.loads[min_i] {
                min_i = i;
            }
        }
        (self.loads[max_i] - self.loads[min_i] > 1).then_some((max_i, min_i))
    }

    /// Picks the shard a new subscription should land on — the
    /// least-loaded shard among the currently
    /// [placeable](SubscriptionDirectory::restrict_placement) ones,
    /// ties broken round-robin from an internal cursor — and reserves
    /// one unit of load on it. Follow with
    /// [`SubscriptionDirectory::issue`] or
    /// [`SubscriptionDirectory::cancel`].
    ///
    /// On a directory that has only ever seen subscribes, this places
    /// exactly like classic round-robin (shard `n % S` for the *n*-th
    /// call); once unsubscribes have skewed the loads, drained shards
    /// are refilled first.
    pub fn place(&mut self) -> usize {
        self.place_among(self.active)
    }

    /// [`SubscriptionDirectory::place`] restricted to shards
    /// `0..limit` — the form shard draining uses, so a dying shard
    /// (index ≥ `limit`) is never chosen as a migration target.
    ///
    /// # Panics
    ///
    /// Panics if `limit` is zero or exceeds the shard count.
    pub fn place_among(&mut self, limit: usize) -> usize {
        assert!(
            limit > 0 && limit <= self.shard_count(),
            "placement limit {limit} outside 1..={}",
            self.shard_count()
        );
        // lint: allow(panic-policy, reason = "unreachable: the assert above pins limit > 0, so the slice has a minimum")
        let min = self.loads[..limit]
            .iter()
            .copied()
            .min()
            .expect("limit > 0");
        let mut chosen = self.cursor % limit;
        for step in 0..limit {
            let shard = (self.cursor + step) % limit;
            if self.loads[shard] == min {
                chosen = shard;
                break;
            }
        }
        self.cursor = (chosen + 1) % limit;
        self.loads[chosen] += 1;
        chosen
    }

    /// Reserves a shard for `expr` under `policy` — the one placement
    /// decision the broker and [`crate::ShardedEngine`] share.
    /// [`PlacementPolicy::LeastLoaded`] is [`SubscriptionDirectory::place`].
    /// [`PlacementPolicy::ClusterByAttribute`] routes to the shard the
    /// expression's dominant equality attribute hashes to
    /// ([`SubscriptionDirectory::place_clustered`], load-capped), so
    /// shard synopses become selective and pruning bites; an expression
    /// with no required equality is placed least-loaded. Follow with
    /// [`SubscriptionDirectory::issue`] or
    /// [`SubscriptionDirectory::cancel`].
    pub fn place_for(&mut self, policy: PlacementPolicy, expr: &Expr) -> usize {
        match policy {
            PlacementPolicy::LeastLoaded => self.place(),
            PlacementPolicy::ClusterByAttribute => match dominant_eq_attr(expr) {
                Some(attr) => self.place_clustered(attribute_hash(attr)),
                None => self.place(),
            },
        }
    }

    /// Content-aware variant of [`SubscriptionDirectory::place`] for
    /// [`PlacementPolicy::ClusterByAttribute`]: reserves the *preferred*
    /// shard — `attr_hash` (the subscription's dominant equality
    /// attribute, hashed) mapped onto the placeable shards — so
    /// subscriptions sharing an attribute co-reside and synopsis pruning
    /// can skip every other shard.
    ///
    /// Clustering is **load-capped**: when the preferred shard already
    /// carries more than twice the other shards' average load (plus a
    /// small bootstrap slack), placement falls back to the least-loaded
    /// choice, so a degenerate workload clustering onto one attribute
    /// cannot recreate the churn-skew pathology least-loaded placement
    /// exists to prevent.
    pub fn place_clustered(&mut self, attr_hash: u64) -> usize {
        let limit = self.active;
        let preferred = usize::try_from(attr_hash % limit as u64).expect("shard index fits usize");
        if limit == 1 {
            self.loads[0] += 1;
            return 0;
        }
        // The cap compares against the *other* shards' average load, so
        // a lone runaway cluster cannot raise its own ceiling: a
        // clustered shard never exceeds twice the rest's fair share
        // (plus the bootstrap slack).
        let others: usize = self.loads[..limit].iter().sum::<usize>() - self.loads[preferred];
        let cap = 2 * (others / (limit - 1)) + CLUSTER_LOAD_SLACK;
        if self.loads[preferred] < cap {
            self.loads[preferred] += 1;
            preferred
        } else {
            self.place_among(limit)
        }
    }

    /// Restricts every subsequent [`SubscriptionDirectory::place`] to
    /// shards `0..survivors` — the first step of a shrink: once set, no
    /// new subscription can land on a dying shard while its residents
    /// drain. [`SubscriptionDirectory::remove_last_shard`] completes
    /// the shrink; [`SubscriptionDirectory::add_shard`] lifts the
    /// restriction when growing again.
    ///
    /// # Panics
    ///
    /// Panics if `survivors` is zero or exceeds the shard count.
    pub fn restrict_placement(&mut self, survivors: usize) {
        assert!(
            survivors > 0 && survivors <= self.shard_count(),
            "placement restriction {survivors} outside 1..={}",
            self.shard_count()
        );
        self.active = survivors;
    }

    /// The exclusive upper bound of shards
    /// [`SubscriptionDirectory::place`] currently chooses from; equal
    /// to the shard count except mid-shrink.
    pub fn active_shards(&self) -> usize {
        self.active
    }

    /// Releases a reservation made by [`SubscriptionDirectory::place`]
    /// whose engine `subscribe` failed.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range or has no load to release.
    pub fn cancel(&mut self, shard: usize) {
        assert!(self.loads[shard] > 0, "cancel without a reservation");
        self.loads[shard] -= 1;
    }

    /// Completes a placement reserved by
    /// [`SubscriptionDirectory::place`]: records that `shard` assigned
    /// `local` to the new subscription, and issues its global id (a
    /// retired slot under its next generation when one is free — see
    /// the type docs). The caller is responsible for mirroring the
    /// `local → global` mapping into the shard's [`ShardTranslation`].
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn issue(&mut self, shard: usize, local: SubscriptionId) -> SubscriptionId {
        let placement = Placement {
            shard: u32::try_from(shard).expect("shard count fits u32"),
            local: u32::try_from(local.index()).expect("local ids fit u32"),
        };
        let slot_index = match self.free.pop() {
            Some(free) => {
                debug_assert!(self.slots[free as usize].placement.is_none());
                self.slots[free as usize].placement = Some(placement);
                free
            }
            None => {
                let next = u32::try_from(self.slots.len()).expect("more than u32::MAX - 1 ids");
                // Slot `u32::MAX` is never issued: `u64::MAX` is the
                // translation maps' sentinel, and a packed id with slot
                // and generation both `u32::MAX` would collide with it.
                assert_ne!(next, u32::MAX, "global subscription slot space exhausted");
                reserve_tight(&mut self.slots, 1);
                self.slots.push(Slot {
                    generation: 0,
                    placement: Some(placement),
                });
                next
            }
        };
        self.live += 1;
        SubscriptionId::from_parts(
            self.slots[slot_index as usize].generation,
            slot_index as usize,
        )
    }

    /// [`SubscriptionDirectory::issue`] with an expression argument that
    /// is ignored and dropped: the directory keeps no expression. It
    /// stays only until the benchmark's directory row stops calling it
    /// (ROADMAP item 1 removes it).
    pub fn commit(
        &mut self,
        shard: usize,
        local: SubscriptionId,
        _expr: Arc<Expr>,
    ) -> SubscriptionId {
        self.issue(shard, local)
    }

    /// The slot behind `global`, provided the id's generation matches
    /// the slot's current occupancy — a stale id (earlier generation of
    /// a recycled slot) resolves to `None` exactly like a never-issued
    /// one.
    fn live_slot(&self, global: SubscriptionId) -> Option<&Placement> {
        let slot = self.slots.get(global.slot())?;
        if slot.generation != global.generation() {
            return None;
        }
        slot.placement.as_ref()
    }

    /// The `(shard, local id)` placement behind a global id, or `None`
    /// for ids never issued, already retired, or from an earlier
    /// generation of a recycled slot.
    pub fn placement_of(&self, global: SubscriptionId) -> Option<(usize, SubscriptionId)> {
        let p = self.live_slot(global)?;
        Some((
            p.shard as usize,
            SubscriptionId::from_index(p.local as usize),
        ))
    }

    /// Removes a subscription: frees its slot onto the free list, bumps
    /// the slot's generation and releases its load unit. Returns the
    /// placement it had — the caller clears the owning shard's
    /// [`ShardTranslation`] entry — or `None` for unknown, stale or
    /// already-retired ids.
    pub fn retire(&mut self, global: SubscriptionId) -> Option<(usize, SubscriptionId)> {
        let slot = self.slots.get_mut(global.slot())?;
        if slot.generation != global.generation() {
            return None;
        }
        let p = slot.placement.take()?;
        // The ABA guard: whatever this slot is reissued as next carries
        // a generation no retired holder ever saw. (Wrapping after 2^32
        // retires of one slot is accepted: an id that stale has crossed
        // four billion reuses.)
        slot.generation = slot.generation.wrapping_add(1);
        self.loads[p.shard as usize] -= 1;
        self.live -= 1;
        self.free
            .push(u32::try_from(global.slot()).expect("issued slots fit u32"));
        Some((
            p.shard as usize,
            SubscriptionId::from_index(p.local as usize),
        ))
    }

    /// Commits a live migration: moves `global` from `(from,
    /// old_local)` to `(to, new_local)`, keeping its global id.
    /// Returns `false` — changing nothing — unless
    /// the subscription's current placement is exactly `(from,
    /// old_local)`, so a migrator that raced a concurrent unsubscribe
    /// can detect the loss and undo its target-side subscribe. The
    /// caller moves the [`ShardTranslation`] entries of the two
    /// involved shards (under their locks, when there are locks).
    ///
    /// # Panics
    ///
    /// Panics if `to` is out of range.
    pub fn relocate(
        &mut self,
        global: SubscriptionId,
        from: usize,
        old_local: SubscriptionId,
        to: usize,
        new_local: SubscriptionId,
    ) -> bool {
        assert!(to < self.shard_count(), "target shard out of range");
        let Some(slot) = self.slots.get_mut(global.slot()) else {
            return false;
        };
        if slot.generation != global.generation() {
            return false;
        }
        let Some(p) = slot.placement.as_mut() else {
            return false;
        };
        if p.shard as usize != from || p.local as usize != old_local.index() {
            return false;
        }
        p.shard = u32::try_from(to).expect("shard count fits u32");
        p.local = u32::try_from(new_local.index()).expect("local ids fit u32");
        self.loads[from] -= 1;
        self.loads[to] += 1;
        true
    }

    /// Adds one (empty) shard at the next index and returns that index.
    /// Any placement restriction from an earlier shrink is lifted.
    pub fn add_shard(&mut self) -> usize {
        self.loads.push(0);
        self.active = self.loads.len();
        self.loads.len() - 1
    }

    /// Removes the highest-indexed shard.
    ///
    /// # Panics
    ///
    /// Panics if it still carries load (drain it first) or if it is the
    /// only shard.
    pub fn remove_last_shard(&mut self) {
        assert!(self.shard_count() > 1, "cannot remove the only shard");
        assert_eq!(
            *self.loads.last().expect("at least one shard"),
            0,
            "removing a shard that still carries subscriptions"
        );
        self.loads.pop();
        self.active = self.active.min(self.loads.len());
        self.cursor %= self.shard_count();
    }

    /// Heap bytes held by the directory: its slot, free-list and load
    /// tables. The per-shard [`ShardTranslation`] maps are charged by
    /// their owners (they no longer live here). Folded into the sharded
    /// engine's and broker's `memory_usage` as
    /// unsubscription/rebalancing support.
    pub fn heap_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<Slot>()
            + self.free.capacity() * 4
            + self.loads.capacity() * std::mem::size_of::<usize>()
    }
}

/// One shard's local → global id translation map — the read side of
/// the [`SubscriptionDirectory`] split, owned next to the shard's
/// engine and read under the shard's own lock.
///
/// Matching translates each matched local id through the shard it just
/// matched (`translation.global_of(local)`), so the per-event
/// translation cost involves **no shared broker state**: the shard
/// lock the matcher already holds covers the map, and a subscription /
/// unsubscription / migration updates only the maps of the shards it
/// write-locks anyway.
///
/// # Examples
///
/// ```
/// use boolmatch_core::{ShardTranslation, SubscriptionId};
///
/// let mut map = ShardTranslation::new();
/// let local = SubscriptionId::from_index(0);
/// let global = SubscriptionId::from_index(17);
/// map.set(local, global);
/// assert_eq!(map.global_of(local), Some(global));
/// assert_eq!(map.last_resident(), Some((global, local)));
/// assert!(map.clear_if(local, global));
/// assert_eq!(map.global_of(local), None);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ShardTranslation {
    /// `map[local]` → packed global id raw value, `NO_GLOBAL` when the
    /// local slot holds no live subscription.
    map: Vec<u64>,
    /// Live entries (non-sentinel), kept so `len` is O(1).
    live: usize,
}

impl ShardTranslation {
    /// An empty map; grows lazily to the shard's local id space.
    pub fn new() -> Self {
        ShardTranslation::default()
    }

    /// Live subscriptions mapped on this shard.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the shard maps no live subscription.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Records that this shard's `local` id belongs to `global`.
    ///
    /// # Panics
    ///
    /// Panics (debug) if the local slot is already mapped.
    pub fn set(&mut self, local: SubscriptionId, global: SubscriptionId) {
        let raw = (global.generation() as u64) << 32 | global.slot() as u64;
        debug_assert_ne!(raw, NO_GLOBAL, "packed id collides with the sentinel");
        if self.map.len() <= local.index() {
            let missing = local.index() + 1 - self.map.len();
            reserve_tight(&mut self.map, missing);
            self.map.resize(local.index() + 1, NO_GLOBAL);
        }
        debug_assert_eq!(
            self.map[local.index()],
            NO_GLOBAL,
            "local slot already mapped"
        );
        self.map[local.index()] = raw;
        self.live += 1;
    }

    /// The global id currently mapped to `local` — the translation
    /// matching applies to each matched local id. `None` when the slot
    /// holds no live subscription (out of range, never issued, retired,
    /// or migrated away).
    pub fn global_of(&self, local: SubscriptionId) -> Option<SubscriptionId> {
        self.map
            .get(local.index())
            .copied()
            .filter(|&raw| raw != NO_GLOBAL)
            .map(|raw| {
                // lint: allow(panic-policy, reason = "the slot is masked to its 32-bit field, so from_parts' range check cannot fail")
                SubscriptionId::from_parts((raw >> 32) as u32, (raw & u64::from(u32::MAX)) as usize)
            })
    }

    /// Clears the `local` entry, returning the global id it mapped (or
    /// `None` if it was empty).
    pub fn clear(&mut self, local: SubscriptionId) -> Option<SubscriptionId> {
        let global = self.global_of(local)?;
        self.map[local.index()] = NO_GLOBAL;
        self.live -= 1;
        self.trim_tail();
        Some(global)
    }

    /// Clears the `local` entry only if it currently maps to `global`;
    /// returns whether it did. This is the guard concurrent brokers use
    /// when an unsubscribe may race a resize that rebuilt the shard at
    /// this index: a stale caller's `(local, global)` pair cannot match
    /// a fresh shard's map, so the fresh shard's subscriptions are
    /// safe from stale removals.
    pub fn clear_if(&mut self, local: SubscriptionId, global: SubscriptionId) -> bool {
        if self.global_of(local) != Some(global) {
            return false;
        }
        self.map[local.index()] = NO_GLOBAL;
        self.live -= 1;
        self.trim_tail();
        true
    }

    /// Truncates the dead sentinel tail a clear may leave. Migration
    /// always retires the *highest* live local first, so without the
    /// truncation a shard drain would rescan an ever-growing sentinel
    /// suffix on every [`ShardTranslation::last_resident`] call —
    /// O(n²) over the drain. Trimming keeps the tail live and the drain
    /// linear.
    fn trim_tail(&mut self) {
        while self.map.last() == Some(&NO_GLOBAL) {
            self.map.pop();
        }
    }

    /// The live `(global, local)` pairs resident on this shard,
    /// ascending by local id — an inspection/debug helper (allocates a
    /// fresh `Vec`). Migration planning itself walks victims through
    /// [`ShardTranslation::last_resident`], not through this.
    pub fn residents(&self) -> Vec<(SubscriptionId, SubscriptionId)> {
        (0..self.map.len())
            .filter_map(|local| {
                let local = SubscriptionId::from_index(local);
                self.global_of(local).map(|global| (global, local))
            })
            .collect()
    }

    /// The resident with the highest local id — the cheapest
    /// deterministic migration victim (the map's tail entry).
    pub fn last_resident(&self) -> Option<(SubscriptionId, SubscriptionId)> {
        (0..self.map.len()).rev().find_map(|local| {
            let local = SubscriptionId::from_index(local);
            self.global_of(local).map(|global| (global, local))
        })
    }

    /// Approximate heap bytes held by the map — charged into its
    /// owner's `memory_usage` (each shard's translation map is that
    /// shard's overhead, not the directory's).
    pub fn heap_bytes(&self) -> usize {
        self.map.capacity() * std::mem::size_of::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sid(i: usize) -> SubscriptionId {
        SubscriptionId::from_index(i)
    }

    /// Registers one subscription the way engines do: place, then
    /// issue with the next local id of the chosen shard, then mirror
    /// the mapping into the shard's translation map.
    fn register(
        dir: &mut SubscriptionDirectory,
        maps: &mut [ShardTranslation],
        next_local: &mut [usize],
    ) -> SubscriptionId {
        let shard = dir.place();
        let local = sid(next_local[shard]);
        next_local[shard] += 1;
        let global = dir.issue(shard, local);
        maps[shard].set(local, global);
        global
    }

    /// Retires `global` from the directory and its shard's map, the way
    /// engine/broker unsubscribe does.
    fn retire(
        dir: &mut SubscriptionDirectory,
        maps: &mut [ShardTranslation],
        global: SubscriptionId,
    ) -> usize {
        let (shard, local) = dir.retire(global).unwrap();
        assert!(maps[shard].clear_if(local, global));
        shard
    }

    #[test]
    fn churn_free_placement_is_round_robin_with_arrival_order_ids() {
        let mut dir = SubscriptionDirectory::new(3);
        let mut maps = vec![ShardTranslation::new(); 3];
        let mut locals = [0usize; 3];
        for n in 0..9 {
            let before = dir.loads().to_vec();
            let global = register(&mut dir, &mut maps, &mut locals);
            // No slot was ever retired, so each issue appends.
            assert_eq!(global.slot(), n, "fresh slots in issue order");
            assert_eq!(global.generation(), 0, "a fresh slot is untagged");
            // The n-th subscription lands on shard n % 3, like the old
            // round-robin cursor.
            let (shard, _) = dir.placement_of(global).unwrap();
            assert_eq!(shard, n % 3);
            assert_eq!(dir.load(shard), before[shard] + 1);
        }
        assert_eq!(dir.loads(), &[3, 3, 3]);
        assert_eq!(dir.live(), 9);
        assert!(dir.skew_pair().is_none());
        assert_eq!(maps.iter().map(ShardTranslation::len).sum::<usize>(), 9);
    }

    #[test]
    fn drained_shard_is_refilled_first() {
        let mut dir = SubscriptionDirectory::new(4);
        let mut maps = vec![ShardTranslation::new(); 4];
        let mut locals = [0usize; 4];
        let globals: Vec<_> = (0..12)
            .map(|_| register(&mut dir, &mut maps, &mut locals))
            .collect();
        // Drain shard 2 (subscriptions 2, 6, 10).
        for &g in &[globals[2], globals[6], globals[10]] {
            assert_eq!(retire(&mut dir, &mut maps, g), 2);
        }
        assert_eq!(dir.loads(), &[3, 3, 0, 3]);
        assert_eq!(dir.skew_pair(), Some((0, 2)));
        assert!(maps[2].is_empty());
        // The next three placements must refill shard 2 — the old blind
        // round-robin cursor would have spread them over all shards.
        for _ in 0..3 {
            let g = register(&mut dir, &mut maps, &mut locals);
            assert_eq!(dir.placement_of(g).unwrap().0, 2);
        }
        assert_eq!(dir.loads(), &[3, 3, 3, 3]);
        assert!(dir.skew_pair().is_none());
    }

    #[test]
    fn recycled_ids_pop_the_free_list_with_a_fresh_generation() {
        let mut dir = SubscriptionDirectory::new(2);
        let mut maps = vec![ShardTranslation::new(); 2];
        let mut locals = [0usize; 2];
        let a = register(&mut dir, &mut maps, &mut locals);
        let _b = register(&mut dir, &mut maps, &mut locals);
        retire(&mut dir, &mut maps, a);
        let c = register(&mut dir, &mut maps, &mut locals);
        assert_eq!(c.slot(), a.slot(), "retired slot reissued LIFO");
        assert_eq!(c.generation(), a.generation() + 1, "tagged reissue");
        assert_ne!(c, a, "the ABA guard: same slot, distinguishable ids");
        assert_eq!(dir.id_bound(), 2, "table stays bounded");
        assert_eq!(dir.live(), 2, "no retired slot left");
        // The stale id is dead everywhere: lookups, retire, relocate.
        assert_eq!(dir.placement_of(a), None);
        assert_eq!(dir.retire(a), None);
        assert!(!dir.relocate(a, 0, sid(1), 1, sid(0)));
        // While the reissued id is fully live.
        assert!(dir.placement_of(c).is_some());
    }

    #[test]
    fn cancel_releases_the_reservation() {
        let mut dir = SubscriptionDirectory::new(2);
        let shard = dir.place();
        assert_eq!(dir.load(shard), 1);
        dir.cancel(shard);
        assert_eq!(dir.loads(), &[0, 0]);
        // The tie-break cursor advanced, so — like the old round-robin
        // cursor *not* advancing on rejection — the next placement still
        // refills the least-loaded shard first (all tied: cursor order).
        let next = dir.place();
        assert_eq!(next, 1);
    }

    #[test]
    fn clustered_placement_prefers_the_hashed_shard_until_the_cap() {
        let mut dir = SubscriptionDirectory::new(4);
        // hash 6 → shard 2, regardless of loads (under the cap).
        for _ in 0..3 {
            assert_eq!(dir.place_clustered(6), 2);
        }
        assert_eq!(dir.loads(), &[0, 0, 3, 0]);
        // With the other shards empty the cap is pure bootstrap slack:
        // pile on until the preferred shard hits it, then fall back to
        // least-loaded.
        for _ in 0..CLUSTER_LOAD_SLACK - 3 {
            assert_eq!(dir.place_clustered(6), 2);
        }
        let overflow = dir.place_clustered(6);
        assert_ne!(overflow, 2, "over the cap: least-loaded fallback");
        assert_eq!(dir.load(2), CLUSTER_LOAD_SLACK);
        // The cap scales with the fair share, so a busy directory lets
        // clusters keep growing past the bootstrap slack.
        for _ in 0..40 {
            dir.place();
        }
        assert_eq!(dir.place_clustered(6), 2, "2 × fair share not reached");
    }

    #[test]
    fn clustered_placement_respects_shrink_restriction() {
        let mut dir = SubscriptionDirectory::new(4);
        dir.restrict_placement(2);
        // hash 3 → shard 3 of 4, but only shards 0..2 are placeable:
        // the preference folds onto the survivors (3 % 2 = 1).
        assert_eq!(dir.place_clustered(3), 1);
        assert_eq!(dir.loads(), &[0, 1, 0, 0]);
    }

    #[test]
    fn relocate_keeps_the_global_id_and_moves_the_load() {
        let mut dir = SubscriptionDirectory::new(2);
        let mut maps = vec![ShardTranslation::new(); 2];
        let mut locals = [0usize; 2];
        let g = register(&mut dir, &mut maps, &mut locals); // shard 0, local 0
        assert!(dir.relocate(g, 0, sid(0), 1, sid(7)));
        // The caller mirrors the move into the two shard maps.
        assert!(maps[0].clear_if(sid(0), g));
        maps[1].set(sid(7), g);
        assert_eq!(dir.placement_of(g), Some((1, sid(7))));
        assert_eq!(maps[0].global_of(sid(0)), None);
        assert_eq!(maps[1].global_of(sid(7)), Some(g));
        assert_eq!(dir.loads(), &[0, 1]);
        // Stale placements (wrong shard or local) are refused.
        assert!(!dir.relocate(g, 0, sid(0), 0, sid(1)));
        assert!(!dir.relocate(sid(99), 0, sid(0), 1, sid(1)));
        // Retired ids are refused too.
        dir.retire(g).unwrap();
        assert!(!dir.relocate(g, 1, sid(7), 0, sid(1)));
    }

    #[test]
    fn placement_restriction_bounds_place() {
        let mut dir = SubscriptionDirectory::new(4);
        assert_eq!(dir.active_shards(), 4);
        dir.restrict_placement(2);
        assert_eq!(dir.active_shards(), 2);
        for _ in 0..8 {
            let shard = dir.place();
            assert!(shard < 2, "restricted placement chose shard {shard}");
        }
        // Growing lifts the restriction.
        dir.add_shard();
        assert_eq!(dir.active_shards(), 5);
    }

    #[test]
    fn shard_count_grows_and_shrinks() {
        let mut dir = SubscriptionDirectory::new(2);
        let mut maps = vec![ShardTranslation::new(); 3];
        let mut locals = [0usize; 3];
        let _ = register(&mut dir, &mut maps, &mut locals);
        assert_eq!(dir.add_shard(), 2);
        assert_eq!(dir.shard_count(), 3);
        // Shards 1 and 2 tie at zero load; the cursor (at 1) breaks the
        // tie, then the new shard fills.
        let g1 = register(&mut dir, &mut maps, &mut locals);
        assert_eq!(dir.placement_of(g1).unwrap().0, 1);
        let g = register(&mut dir, &mut maps, &mut locals);
        assert_eq!(dir.placement_of(g).unwrap().0, 2);
        // place_among excludes dying shards.
        let target = dir.place_among(2);
        assert!(target < 2);
        dir.cancel(target);
        // Draining then removing the last shard.
        let (_, local) = maps[2].last_resident().unwrap();
        let to = dir.place_among(2);
        dir.cancel(to); // relocate moves the load itself
        assert!(dir.relocate(g, 2, local, to, sid(locals[to])));
        assert!(maps[2].clear_if(local, g));
        maps[to].set(sid(locals[to]), g);
        dir.remove_last_shard();
        assert_eq!(dir.shard_count(), 2);
        assert_eq!(dir.placement_of(g).unwrap().0, to);
    }

    #[test]
    #[should_panic(expected = "still carries subscriptions")]
    fn removing_a_loaded_shard_panics() {
        let mut dir = SubscriptionDirectory::new(2);
        let shard = dir.place();
        dir.issue(shard, sid(0));
        // Shard 0 got the subscription; make shard 1 the loaded one.
        let shard = dir.place();
        dir.issue(shard, sid(0));
        dir.remove_last_shard();
    }

    #[test]
    #[should_panic(expected = "cannot remove the only shard")]
    fn removing_the_only_shard_panics() {
        SubscriptionDirectory::new(1).remove_last_shard();
    }

    #[test]
    fn heap_bytes_are_the_tables_whatever_the_expressions() {
        // Two directories take the same 32 placements, one handed
        // one-leaf expressions, the other 64-leaf ones: commit drops
        // what it is handed, so both charge the same table bytes.
        let small = Arc::new(Expr::parse("a = 1").unwrap());
        let big = Arc::new(Expr::parse(&["a = 1"; 64].join(" or ")).unwrap());
        let mut dirs = [SubscriptionDirectory::new(2), SubscriptionDirectory::new(2)];
        for (dir, expr) in dirs.iter_mut().zip([&small, &big]) {
            for i in 0..32 {
                let shard = dir.place();
                dir.commit(shard, sid(i), Arc::clone(expr));
            }
        }
        assert_eq!(Arc::strong_count(&big), 1, "no expression is kept");
        assert_eq!(dirs[0].heap_bytes(), dirs[1].heap_bytes());
        // 32 slots of 16 bytes, an untouched free list, two loads.
        let full = dirs[1].heap_bytes();
        assert_eq!(full, 32 * 16 + 2 * std::mem::size_of::<usize>());
        // Retiring keeps the slot table (its slots wait for reissue)
        // and adds only the free list.
        for slot in 0..32 {
            dirs[1].retire(sid(slot)).unwrap();
        }
        assert_eq!(dirs[1].heap_bytes(), full + 32 * 4);
    }

    #[test]
    fn a_slot_is_sixteen_bytes() {
        // Generation plus `Option<(shard, local)>`: the directory's
        // whole per-subscription cost.
        assert!(std::mem::size_of::<Slot>() <= 16);
    }

    #[test]
    fn translation_map_tracks_residents() {
        let mut map = ShardTranslation::new();
        assert!(map.is_empty());
        assert_eq!(map.last_resident(), None);
        assert_eq!(map.global_of(sid(5)), None, "out of range is empty");
        map.set(sid(0), sid(10));
        map.set(sid(1), sid(11));
        map.set(sid(2), sid(12));
        assert_eq!(map.len(), 3);
        assert_eq!(
            map.residents(),
            vec![(sid(10), sid(0)), (sid(11), sid(1)), (sid(12), sid(2))]
        );
        assert_eq!(map.last_resident(), Some((sid(12), sid(2))));
        // Clearing the tail truncates it (the O(n²)-drain guard).
        assert_eq!(map.clear(sid(2)), Some(sid(12)));
        assert_eq!(map.last_resident(), Some((sid(11), sid(1))));
        assert_eq!(map.clear(sid(2)), None, "double clear");
        // Middle clears leave the tail live.
        assert_eq!(map.clear(sid(0)), Some(sid(10)));
        assert_eq!(map.residents(), vec![(sid(11), sid(1))]);
        assert_eq!(map.len(), 1);
    }

    #[test]
    fn translation_clear_if_guards_against_stale_pairs() {
        let mut map = ShardTranslation::new();
        map.set(sid(0), sid(10));
        // A stale caller with the wrong global id cannot clear the
        // slot's current owner.
        assert!(!map.clear_if(sid(0), sid(99)));
        assert_eq!(map.global_of(sid(0)), Some(sid(10)));
        assert!(map.clear_if(sid(0), sid(10)));
        assert!(!map.clear_if(sid(0), sid(10)), "already cleared");
    }

    #[test]
    fn translation_round_trips_generation_tagged_ids() {
        let mut map = ShardTranslation::new();
        let tagged = SubscriptionId::from_parts(7, 3);
        map.set(sid(0), tagged);
        assert_eq!(map.global_of(sid(0)), Some(tagged));
        assert_eq!(map.last_resident(), Some((tagged, sid(0))));
        assert!(map.clear_if(sid(0), tagged));
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shard_directory_panics() {
        let _ = SubscriptionDirectory::new(0);
    }
}
