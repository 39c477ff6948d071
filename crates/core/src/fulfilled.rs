//! The fulfilled-predicate set produced by phase 1.

use boolmatch_types::Event;

use crate::PredicateId;

/// The output of predicate matching: the set `{id(p)}` of predicates an
/// event fulfils (paper §3.2).
///
/// Backed by a generation-stamped array, so it supports `O(1)` inserts
/// and membership tests *and* can be reused across events without
/// clearing — [`FulfilledSet::begin`] just bumps the generation. This
/// matters because the stamp array is sized to the predicate universe
/// (millions of entries at paper scale); zeroing it per event would
/// dominate matching time.
///
/// # The event behind the set
///
/// An engine whose phase 1 reports only *some* fulfilled predicates —
/// [`crate::NonCanonicalEngine`] indexes only those that can make a
/// subscription a candidate — starts the set with
/// [`FulfilledSet::begin_event`], and its phase 2 compares every other
/// predicate it meets against [`FulfilledSet::event`]. The ids mean
/// what they mean **to the engine that ran phase 1**: hand the set to
/// that engine's phase 2, not to another engine's. A set started with
/// [`FulfilledSet::begin`] or built by [`FulfilledSet::from_ids`]
/// carries no event and is complete as it stands: a predicate is
/// fulfilled exactly when its id is in it.
///
/// # Examples
///
/// ```
/// use boolmatch_core::{FulfilledSet, PredicateId};
///
/// let mut set = FulfilledSet::new();
/// set.begin(100);
/// set.insert(PredicateId::from_index(7));
/// set.insert(PredicateId::from_index(7)); // duplicates are ignored
/// assert!(set.contains(PredicateId::from_index(7)));
/// assert!(!set.contains(PredicateId::from_index(8)));
/// assert_eq!(set.len(), 1);
///
/// set.begin(100); // next event: O(1), nothing to clear
/// assert!(!set.contains(PredicateId::from_index(7)));
/// ```
#[derive(Debug, Clone, Default)]
pub struct FulfilledSet {
    ids: Vec<PredicateId>,
    stamps: Vec<u32>,
    generation: u32,
    /// The event phase 1 ran on, when the ids alone do not decide
    /// every predicate (a shared handle on its attribute table).
    event: Option<Event>,
}

impl FulfilledSet {
    /// Creates an empty set. Call [`FulfilledSet::begin`] before use.
    pub fn new() -> Self {
        FulfilledSet::default()
    }

    /// Creates a set ready for a universe of `universe` predicate ids.
    pub fn with_universe(universe: usize) -> Self {
        let mut s = Self::new();
        s.begin(universe);
        s
    }

    /// Starts a new event: empties the set (in `O(1)`) and ensures ids
    /// up to `universe` can be inserted. The set carries no event: it
    /// will hold every fulfilled predicate.
    pub fn begin(&mut self, universe: usize) {
        self.event = None;
        self.ids.clear();
        if self.stamps.len() < universe {
            self.stamps.resize(universe, 0);
        }
        if self.generation == u32::MAX {
            // Stamp wrap-around: one full reset every 2^32 events.
            self.stamps.fill(0);
            self.generation = 0;
        }
        self.generation += 1;
    }

    /// [`FulfilledSet::begin`] for a set that will hold only part of
    /// what `event` fulfils: the event rides along (a reference-count
    /// bump, released by the next `begin`) for phase 2 to decide the
    /// rest against.
    pub fn begin_event(&mut self, universe: usize, event: &Event) {
        self.begin(universe);
        self.event = Some(event.clone());
    }

    /// The event the set was started on with
    /// [`FulfilledSet::begin_event`]; `None` when the ids are complete.
    pub fn event(&self) -> Option<&Event> {
        self.event.as_ref()
    }

    /// Inserts a predicate id; duplicates are ignored.
    ///
    /// # Panics
    ///
    /// Panics if `id` is outside the universe declared to
    /// [`FulfilledSet::begin`].
    pub fn insert(&mut self, id: PredicateId) {
        let stamp = &mut self.stamps[id.index()];
        if *stamp != self.generation {
            *stamp = self.generation;
            self.ids.push(id);
        }
    }

    /// Whether `id` is in the set. Ids outside the declared universe are
    /// reported as absent.
    pub fn contains(&self, id: PredicateId) -> bool {
        self.stamps
            .get(id.index())
            .is_some_and(|&s| s == self.generation)
    }

    /// The fulfilled ids, in insertion order.
    pub fn ids(&self) -> &[PredicateId] {
        &self.ids
    }

    /// Number of fulfilled predicates.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether no predicates are fulfilled.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Builds a set directly from raw ids — synthesized phase-1 output,
    /// as in the paper's experiments, which parameterise on "matching
    /// predicates per event" rather than concrete events.
    pub fn from_ids<I: IntoIterator<Item = PredicateId>>(ids: I, universe: usize) -> Self {
        let mut s = Self::with_universe(universe);
        for id in ids {
            s.insert(id);
        }
        s
    }

    /// Approximate heap bytes (scratch memory, counted separately from
    /// engine tables in [`crate::MemoryUsage`]).
    pub fn heap_bytes(&self) -> usize {
        self.ids.capacity() * std::mem::size_of::<PredicateId>() + self.stamps.capacity() * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(i: usize) -> PredicateId {
        PredicateId::from_index(i)
    }

    #[test]
    fn insert_and_contains() {
        let mut s = FulfilledSet::with_universe(10);
        s.insert(id(3));
        s.insert(id(9));
        assert!(s.contains(id(3)));
        assert!(s.contains(id(9)));
        assert!(!s.contains(id(4)));
        assert_eq!(s.len(), 2);
        assert_eq!(s.ids(), &[id(3), id(9)]);
    }

    #[test]
    fn duplicates_ignored() {
        let mut s = FulfilledSet::with_universe(10);
        s.insert(id(1));
        s.insert(id(1));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn begin_resets_in_o1() {
        let mut s = FulfilledSet::with_universe(10);
        s.insert(id(1));
        s.begin(10);
        assert!(s.is_empty());
        assert!(!s.contains(id(1)));
        s.insert(id(2));
        assert!(s.contains(id(2)));
    }

    #[test]
    fn universe_can_grow() {
        let mut s = FulfilledSet::with_universe(2);
        s.insert(id(1));
        s.begin(100);
        s.insert(id(99));
        assert!(s.contains(id(99)));
    }

    #[test]
    fn out_of_universe_contains_is_false() {
        let s = FulfilledSet::with_universe(5);
        assert!(!s.contains(id(1000)));
    }

    #[test]
    fn from_ids_builder() {
        let s = FulfilledSet::from_ids([id(0), id(2), id(0)], 5);
        assert_eq!(s.len(), 2);
        assert!(s.contains(id(0)));
        assert!(s.contains(id(2)));
        assert!(!s.contains(id(1)));
    }

    #[test]
    fn event_rides_along_until_the_next_begin() {
        let event = Event::builder().attr("a", 1_i64).build();
        let mut s = FulfilledSet::with_universe(4);
        assert!(s.event().is_none());
        s.begin_event(4, &event);
        s.insert(id(2));
        assert_eq!(s.event(), Some(&event));
        assert!(s.contains(id(2)));
        s.begin(4);
        assert!(s.event().is_none());
        assert!(FulfilledSet::from_ids([id(1)], 4).event().is_none());
    }

    #[test]
    fn generation_wraparound_is_correct() {
        let mut s = FulfilledSet::with_universe(4);
        s.generation = u32::MAX - 1;
        s.begin(4);
        assert_eq!(s.generation, u32::MAX);
        s.insert(id(0));
        assert!(s.contains(id(0)));
        s.begin(4); // triggers the full reset path
        assert!(!s.contains(id(0)));
        s.insert(id(1));
        assert!(s.contains(id(1)));
        assert!(!s.contains(id(0)));
    }
}
