//! Identifier newtypes.

use std::fmt;

/// Identifier of an interned predicate — `id(p)` in the paper.
///
/// Dense (`0..universe`) within one engine; slots are recycled when a
/// predicate's reference count drops to zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PredicateId(u32);

impl PredicateId {
    /// Builds an id from a raw dense index.
    pub fn from_index(index: usize) -> PredicateId {
        PredicateId(u32::try_from(index).expect("more than u32::MAX predicates"))
    }

    /// The raw dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The raw value, as stored in encoded subscription trees (4 bytes,
    /// paper §3.3).
    pub fn raw(self) -> u32 {
        self.0
    }

    /// Rebuilds an id from its raw value.
    pub fn from_raw(raw: u32) -> PredicateId {
        PredicateId(raw)
    }
}

impl fmt::Display for PredicateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Identifier of a registered subscription — `id(s)` in the paper.
///
/// Two id spaces use this type. An engine's **local** id names a slot
/// in the engine's tables: dense, generation 0, and reissued to a later
/// subscribe once unsubscribed (free list first, else append), so the
/// tables follow the live set. The **global** ids of the broker (and
/// of the standalone `ShardedEngine`) come from a
/// [`crate::SubscriptionDirectory`], which reissues retired slots too
/// but tags every reissue with the slot's next generation — that is
/// where a stale id is detected.
///
/// # Generation tagging
///
/// The 64-bit value is split into a 32-bit **slot** (low half) and a
/// 32-bit **generation** (high half). Engine-local ids and a slot's
/// first occupant carry generation 0, so such an id *is* the dense
/// index (`from_index`/`index` round-trip unchanged). Each later
/// occupant of a directory slot gets the slot's next generation: the
/// new id compares, hashes and displays differently from every id the
/// slot carried before, which is what makes id recycling ABA-safe — a
/// stale handle's late unsubscribe can no longer alias the slot's new
/// owner.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SubscriptionId(u64);

/// Bits of a [`SubscriptionId`] holding the slot index; the generation
/// occupies the bits above.
const SLOT_BITS: u32 = 32;

impl SubscriptionId {
    /// Builds an id from a raw dense index (generation 0).
    pub fn from_index(index: usize) -> SubscriptionId {
        SubscriptionId(index as u64)
    }

    /// The raw dense index — for **engine-local** ids, which are
    /// always generation 0.
    ///
    /// A global id's raw value is the full packed word once its slot
    /// has been reissued: use [`SubscriptionId::slot`] to address a
    /// global id (its `index` may not even fit a 32-bit `usize`).
    pub fn index(self) -> usize {
        usize::try_from(self.0).expect("subscription id exceeds usize")
    }

    /// Packs a generation-tagged id: `slot` in the low 32 bits, the
    /// issuing `generation` above.
    ///
    /// # Panics
    ///
    /// Panics if `slot` does not fit the 32-bit slot field.
    pub fn from_parts(generation: u32, slot: usize) -> SubscriptionId {
        let slot = u32::try_from(slot).expect("subscription slot fits u32");
        SubscriptionId(u64::from(generation) << SLOT_BITS | u64::from(slot))
    }

    /// The slot index — the half of the id that addresses a directory
    /// table entry. For generation-0 ids this equals
    /// [`SubscriptionId::index`].
    pub fn slot(self) -> usize {
        (self.0 & u64::from(u32::MAX)) as usize
    }

    /// The generation the slot was under when this id was issued; 0 for
    /// every engine-local id and for a slot's first occupant.
    pub fn generation(self) -> u32 {
        (self.0 >> SLOT_BITS) as u32
    }
}

impl fmt::Display for SubscriptionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.generation() == 0 {
            write!(f, "s{}", self.0)
        } else {
            write!(f, "s{}.g{}", self.slot(), self.generation())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predicate_id_round_trips() {
        let id = PredicateId::from_index(42);
        assert_eq!(id.index(), 42);
        assert_eq!(id.raw(), 42);
        assert_eq!(PredicateId::from_raw(42), id);
        assert_eq!(id.to_string(), "p42");
    }

    #[test]
    fn subscription_id_round_trips() {
        let id = SubscriptionId::from_index(7);
        assert_eq!(id.index(), 7);
        assert_eq!(id.to_string(), "s7");
        assert_eq!(id.slot(), 7);
        assert_eq!(id.generation(), 0);
    }

    #[test]
    fn generation_tagging_packs_and_unpacks() {
        let id = SubscriptionId::from_parts(3, 7);
        assert_eq!(id.slot(), 7);
        assert_eq!(id.generation(), 3);
        assert_eq!(id.to_string(), "s7.g3");
        // Generation 0 is bit-identical to the plain dense index.
        assert_eq!(
            SubscriptionId::from_parts(0, 7),
            SubscriptionId::from_index(7)
        );
        // Same slot, different generation: distinct ids — the ABA guard.
        assert_ne!(
            SubscriptionId::from_parts(1, 7),
            SubscriptionId::from_index(7)
        );
        assert!(
            SubscriptionId::from_parts(1, 0) > SubscriptionId::from_index(u32::MAX as usize - 1)
        );
    }

    #[test]
    fn ids_are_ordered() {
        assert!(PredicateId::from_index(1) < PredicateId::from_index(2));
        assert!(SubscriptionId::from_index(1) < SubscriptionId::from_index(2));
    }
}
