//! The predicate → subscription association table.

use crate::PredicateId;

/// Lists at least this long switch to geometric growth.
const LARGE_THRESHOLD: usize = 64;

/// One predicate's slot in the dense array. The long list's `Vec`
/// header is boxed so that a slot stays the 16 bytes of a bare
/// `Box<[T]>` (the slice pointer's null niche is the discriminant): the
/// common short list pays nothing for the rare long one.
#[derive(Debug, Clone)]
enum Slot<T> {
    /// Exact-fit list; empty for predicates without postings.
    Small(Box<[T]>),
    /// Amortized-growth list. A list never moves back.
    #[allow(clippy::box_collection)] // see the size note above
    Spilled(Box<Vec<T>>),
}

const _: () = assert!(std::mem::size_of::<Slot<u32>>() == std::mem::size_of::<Box<[u32]>>());

/// The association table of paper Fig. 2: maps each predicate id to the
/// list of subscriptions (or DNF conjuncts, for the counting engines)
/// associated with it.
///
/// Storage follows the paper's footnote 2 ("we use arrays instead of a
/// subscription list"): the common case — short lists; exactly one
/// entry in the paper's unique-predicate workloads — is an **exact-fit
/// boxed slice** (16 bytes of slot + 4 bytes per entry, no growth
/// slack, no allocator header bookkeeping in our accounting). Lists
/// that grow past [`LARGE_THRESHOLD`] (heavily shared predicates)
/// spill into a `Vec` with ordinary amortized growth, so popular
/// predicates never pay quadratic append cost. Either kind hangs off
/// the predicate's own slot: a lookup is one dense read, no hashing.
#[derive(Debug, Clone, Default)]
pub(crate) struct AssocTable<T> {
    /// Dense by predicate index.
    slots: Vec<Slot<T>>,
    postings: usize,
}

impl<T: Copy + PartialEq> AssocTable<T> {
    pub(crate) fn new() -> Self {
        AssocTable {
            slots: Vec::new(),
            postings: 0,
        }
    }

    /// Grows the slot array to hold every predicate id below
    /// `universe`. Its capacity is the next power of two of the largest
    /// universe ever announced — a function of the id space alone, not
    /// of which ids went on to receive postings or in what order.
    pub(crate) fn cover(&mut self, universe: usize) {
        if universe <= self.slots.len() {
            return;
        }
        if universe > self.slots.capacity() {
            self.slots
                .reserve_exact(universe.next_power_of_two() - self.slots.len());
        }
        self.slots
            .resize_with(universe, || Slot::Small(Box::default()));
    }

    /// Appends `entry` to the list of `pred`.
    pub(crate) fn add(&mut self, pred: PredicateId, entry: T) {
        let idx = pred.index();
        self.cover(idx + 1);
        self.postings += 1;

        let current = match &mut self.slots[idx] {
            Slot::Spilled(list) => {
                list.push(entry);
                return;
            }
            Slot::Small(current) => current,
        };
        if current.len() + 1 >= LARGE_THRESHOLD {
            let mut list = Vec::with_capacity(current.len() * 2);
            list.extend_from_slice(current);
            list.push(entry);
            self.slots[idx] = Slot::Spilled(Box::new(list));
            return;
        }
        // Exact-fit rebuild: short lists only, so this stays cheap.
        let mut grown = Vec::with_capacity(current.len() + 1);
        grown.extend_from_slice(current);
        grown.push(entry);
        self.slots[idx] = Slot::Small(grown.into_boxed_slice());
    }

    /// Removes one occurrence of `entry` from the list of `pred`;
    /// returns whether it was found. Order within a list is not
    /// preserved.
    pub(crate) fn remove(&mut self, pred: PredicateId, entry: T) -> bool {
        let idx = pred.index();
        let removed = match self.slots.get_mut(idx) {
            None => false,
            Some(Slot::Spilled(list)) => match list.iter().position(|e| *e == entry) {
                Some(pos) => {
                    list.swap_remove(pos);
                    true
                }
                None => false,
            },
            Some(Slot::Small(current)) => match current.iter().position(|e| *e == entry) {
                Some(pos) => {
                    let mut shrunk = Vec::with_capacity(current.len() - 1);
                    shrunk.extend_from_slice(&current[..pos]);
                    shrunk.extend_from_slice(&current[pos + 1..]);
                    *current = shrunk.into_boxed_slice();
                    true
                }
                None => false,
            },
        };
        self.postings -= usize::from(removed);
        removed
    }

    /// Removes all entries of `pred` for which `f` returns true;
    /// returns how many were removed. Used by counting unsubscription,
    /// where one original subscription owns many entries per predicate.
    pub(crate) fn remove_matching(&mut self, pred: PredicateId, f: impl Fn(&T) -> bool) -> usize {
        let removed = match self.slots.get_mut(pred.index()) {
            None => 0,
            Some(Slot::Spilled(list)) => {
                let before = list.len();
                list.retain(|e| !f(e));
                before - list.len()
            }
            Some(Slot::Small(current)) => {
                let kept: Vec<T> = current.iter().copied().filter(|e| !f(e)).collect();
                let removed = current.len() - kept.len();
                if removed > 0 {
                    *current = kept.into_boxed_slice();
                }
                removed
            }
        };
        self.postings -= removed;
        removed
    }

    /// The entries associated with `pred` (empty slice when none).
    pub(crate) fn get(&self, pred: PredicateId) -> &[T] {
        match self.slots.get(pred.index()) {
            Some(Slot::Small(list)) => list,
            Some(Slot::Spilled(list)) => list,
            None => &[],
        }
    }

    /// Total number of postings across all lists.
    pub(crate) fn posting_count(&self) -> usize {
        self.postings
    }

    /// Approximate heap bytes.
    pub(crate) fn heap_bytes(&self) -> usize {
        let entry = std::mem::size_of::<T>();
        let slots = self.slots.capacity() * std::mem::size_of::<Slot<T>>();
        let lists: usize = self
            .slots
            .iter()
            .map(|slot| match slot {
                Slot::Small(list) => list.len() * entry,
                Slot::Spilled(list) => std::mem::size_of::<Vec<T>>() + list.capacity() * entry,
            })
            .sum();
        slots + lists
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(i: usize) -> PredicateId {
        PredicateId::from_index(i)
    }

    #[test]
    fn add_and_get() {
        let mut t: AssocTable<u32> = AssocTable::new();
        t.add(pid(3), 10);
        t.add(pid(3), 11);
        t.add(pid(0), 12);
        assert_eq!(t.get(pid(3)), &[10, 11]);
        assert_eq!(t.get(pid(0)), &[12]);
        assert_eq!(t.get(pid(1)), &[] as &[u32]);
        assert_eq!(t.get(pid(99)), &[] as &[u32]);
        assert_eq!(t.posting_count(), 3);
    }

    #[test]
    fn remove_from_small_list() {
        let mut t: AssocTable<u32> = AssocTable::new();
        t.add(pid(0), 1);
        t.add(pid(0), 2);
        t.add(pid(0), 3);
        assert!(t.remove(pid(0), 1));
        assert!(!t.remove(pid(0), 1));
        let mut left = t.get(pid(0)).to_vec();
        left.sort();
        assert_eq!(left, vec![2, 3]);
        assert_eq!(t.posting_count(), 2);
    }

    #[test]
    fn remove_from_unknown_pred_is_false() {
        let mut t: AssocTable<u32> = AssocTable::new();
        assert!(!t.remove(pid(5), 1));
    }

    #[test]
    fn long_lists_spill_and_keep_working() {
        let mut t: AssocTable<u32> = AssocTable::new();
        let n = LARGE_THRESHOLD * 4;
        for i in 0..n as u32 {
            t.add(pid(7), i);
        }
        assert_eq!(t.get(pid(7)).len(), n);
        assert_eq!(t.posting_count(), n);
        // Every entry is present.
        let mut got = t.get(pid(7)).to_vec();
        got.sort();
        assert_eq!(got, (0..n as u32).collect::<Vec<_>>());
        // Removal still works in the spilled representation.
        assert!(t.remove(pid(7), 100));
        assert!(!t.remove(pid(7), 100));
        assert_eq!(t.posting_count(), n - 1);
    }

    #[test]
    fn remove_matching_works_in_both_tiers() {
        let mut t: AssocTable<u32> = AssocTable::new();
        for i in 0..10u32 {
            t.add(pid(0), i);
        }
        for i in 0..200u32 {
            t.add(pid(1), i);
        }
        assert_eq!(t.remove_matching(pid(0), |e| e % 2 == 0), 5);
        assert_eq!(t.get(pid(0)).len(), 5);
        assert_eq!(t.remove_matching(pid(1), |e| *e < 50), 50);
        assert_eq!(t.get(pid(1)).len(), 150);
        assert_eq!(t.posting_count(), 5 + 150);
        assert_eq!(t.remove_matching(pid(2), |_| true), 0);
    }

    #[test]
    fn slot_growth_ignores_which_ids_get_postings() {
        // Same id space, postings on every id / on every 8th id / added
        // back to front: the slot array is the same size, so bytes
        // differ by the postings alone.
        let universe = 1_000;
        let mut all: AssocTable<u32> = AssocTable::new();
        let mut sparse: AssocTable<u32> = AssocTable::new();
        let mut reversed: AssocTable<u32> = AssocTable::new();
        for step in (8..=universe).step_by(8) {
            all.cover(step);
            sparse.cover(step);
            for i in step - 8..step {
                all.add(pid(i), i as u32);
            }
            sparse.add(pid(step - 8), step as u32);
        }
        for i in (0..universe).rev() {
            reversed.add(pid(i), i as u32);
        }
        let entry = std::mem::size_of::<u32>();
        assert_eq!(all.heap_bytes(), reversed.heap_bytes());
        assert_eq!(
            all.heap_bytes() - sparse.heap_bytes(),
            (all.posting_count() - sparse.posting_count()) * entry
        );
        assert_eq!(
            sparse.heap_bytes(),
            universe.next_power_of_two() * 16 + sparse.posting_count() * entry
        );
    }

    #[test]
    fn spilled_neighbours_leave_dense_lookups_alone() {
        let mut t: AssocTable<u32> = AssocTable::new();
        t.add(pid(0), 1);
        for i in 0..(LARGE_THRESHOLD * 2) as u32 {
            t.add(pid(1), i);
        }
        t.add(pid(2), 2);
        for i in 0..(LARGE_THRESHOLD * 2) as u32 {
            t.add(pid(3), i);
        }
        assert_eq!(t.get(pid(0)), &[1]);
        assert_eq!(t.get(pid(2)), &[2]);
        assert_eq!(t.get(pid(1)).len(), LARGE_THRESHOLD * 2);
        assert_eq!(t.get(pid(3)).len(), LARGE_THRESHOLD * 2);
        // A drained spilled list stays spilled and keeps accepting.
        assert_eq!(t.remove_matching(pid(1), |_| true), LARGE_THRESHOLD * 2);
        assert_eq!(t.get(pid(1)), &[] as &[u32]);
        t.add(pid(1), 9);
        assert_eq!(t.get(pid(1)), &[9]);
        assert_eq!(t.posting_count(), 3 + LARGE_THRESHOLD * 2);
    }

    #[test]
    fn exact_fit_memory_for_singleton_lists() {
        let mut t: AssocTable<u32> = AssocTable::new();
        for i in 0..1_000 {
            t.add(pid(i), i as u32);
        }
        // 16-byte slot + 4-byte entry per predicate, no slack.
        let per_pred = t.heap_bytes() as f64 / 1_000.0;
        assert!(
            per_pred <= 24.0,
            "expected near 20 B/pred for singleton lists, got {per_pred}"
        );
    }
}
