//! Reference-counted predicate interning: one 16-byte record per
//! distinct predicate, found again through a table of ids.

use std::cmp::Ordering;
use std::hash::{BuildHasher, Hash, RandomState};
use std::sync::Arc;

use boolmatch_expr::{CompareOp, Predicate};
use boolmatch_types::{AttrId, Value, ValueKind};

use crate::PredicateId;

/// An empty [`IdTable`] slot.
const EMPTY: u32 = u32::MAX;

/// A hash set of `u32` ids whose keys live elsewhere — in the
/// interner's record or string arrays. Each call passes `key_of`, which
/// maps an id the table holds to its key, so a slot stores the id alone
/// (4 bytes) and two ids are the same entry exactly when their keys are
/// equal.
///
/// Open addressing with linear probing over a power-of-two slot array
/// that is at most 3/4 full, so every probe sequence reaches an
/// [`EMPTY`] slot. Removal shifts the rest of the probe run back into
/// the hole instead of leaving a tombstone: the slot count depends only
/// on the peak number of live ids, never on how many came and went.
#[derive(Debug, Clone, Default)]
struct IdTable<S = RandomState> {
    slots: Box<[u32]>,
    len: usize,
    hasher: S,
}

impl<S: BuildHasher> IdTable<S> {
    #[cfg(test)]
    fn with_hasher(hasher: S) -> Self {
        IdTable {
            slots: Box::default(),
            len: 0,
            hasher,
        }
    }

    /// The slot `key`'s probe sequence starts at; the table must have
    /// slots.
    fn home<K: Hash + ?Sized>(&self, key: &K) -> usize {
        self.hasher.hash_one(key) as usize & (self.slots.len() - 1)
    }

    /// The id whose key equals `key`.
    fn get<'k, K: Hash + Eq + ?Sized + 'k>(
        &self,
        key: &K,
        key_of: impl Fn(u32) -> &'k K,
    ) -> Option<u32> {
        if self.len == 0 {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = self.home(key);
        loop {
            match self.slots[i] {
                EMPTY => return None,
                id if key_of(id) == key => return Some(id),
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Adds `id`, whose key no id in the table has.
    fn insert<'k, K: Hash + ?Sized + 'k>(&mut self, id: u32, key_of: impl Fn(u32) -> &'k K) {
        assert_ne!(id, EMPTY, "id {EMPTY} marks an empty slot");
        self.len += 1;
        if self.len * 4 > self.slots.len() * 3 {
            // The smallest power of two that keeps the table 3/4 full.
            let slots = (self.len * 4).div_ceil(3).next_power_of_two();
            let old = std::mem::replace(&mut self.slots, vec![EMPTY; slots].into_boxed_slice());
            for &moved in old.iter().filter(|&&slot| slot != EMPTY) {
                self.place(moved, &key_of);
            }
        }
        self.place(id, &key_of);
    }

    /// Puts `id` in the first empty slot of its probe sequence.
    fn place<'k, K: Hash + ?Sized + 'k>(&mut self, id: u32, key_of: &impl Fn(u32) -> &'k K) {
        let mask = self.slots.len() - 1;
        let mut i = self.home(key_of(id));
        while self.slots[i] != EMPTY {
            i = (i + 1) & mask;
        }
        self.slots[i] = id;
    }

    /// Removes `id`, which the table holds, by backward shift: each id
    /// later in the probe run moves into the hole unless its own probe
    /// sequence starts after the hole, so every remaining id is still
    /// found from its home slot.
    fn remove<'k, K: Hash + ?Sized + 'k>(&mut self, id: u32, key_of: impl Fn(u32) -> &'k K) {
        let mask = self.slots.len() - 1;
        let mut hole = self.home(key_of(id));
        while self.slots[hole] != id {
            assert_ne!(self.slots[hole], EMPTY, "id {id} is not in the table");
            hole = (hole + 1) & mask;
        }
        let mut i = hole;
        loop {
            i = (i + 1) & mask;
            let next = self.slots[i];
            if next == EMPTY {
                break;
            }
            // Probe distances to `i`: from `next`'s home, and from the
            // hole. The hole lies on `next`'s path iff the first is the
            // larger.
            let from_home = i.wrapping_sub(self.home(key_of(next))) & mask;
            if from_home >= i.wrapping_sub(hole) & mask {
                self.slots[hole] = next;
                hole = i;
            }
        }
        self.slots[hole] = EMPTY;
        self.len -= 1;
    }

    fn heap_bytes(&self) -> usize {
        self.slots.len() * std::mem::size_of::<u32>()
    }
}

/// One interned predicate as the interner stores it: the attribute's
/// slot in the owning engine's phase-1 index, the operator, the
/// constant's kind and an 8-byte payload — the constant itself for
/// `Bool`, `Int` and `Float` (floats by bit pattern, as [`Value`]
/// compares them), its string-table id for `Str`. The payload is two
/// `u32` halves, so the record aligns to 4 and is 16 bytes: the
/// interner's record array is the only place a predicate is kept.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PredRecord {
    slot: AttrId,
    payload: [u32; 2],
    op: CompareOp,
    kind: ValueKind,
}

const _: () = assert!(std::mem::size_of::<PredRecord>() == 16);

/// Hashes the fields packed into one `u128` without overlap, so records
/// that hash the same input are equal: one 16-byte write per lookup,
/// where the derived impl made five writes of 36 bytes in all.
impl Hash for PredRecord {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u128(
            u128::from(self.slot.index() as u32)
                | u128::from(self.payload()) << 32
                | u128::from(self.op as u8) << 96
                | u128::from(self.kind as u8) << 104,
        );
    }
}

impl PredRecord {
    /// The record of `pred` on attribute slot `slot`, its string
    /// constant (if any) numbered by `string_id`; `None` when that
    /// yields no id.
    fn new(
        slot: AttrId,
        pred: &Predicate,
        string_id: impl FnOnce(&Arc<str>) -> Option<u32>,
    ) -> Option<PredRecord> {
        let payload = match pred.value() {
            Value::Bool(b) => u64::from(*b),
            Value::Int(i) => *i as u64,
            Value::Float(x) => x.to_bits(),
            Value::Str(s) => u64::from(string_id(s)?),
        };
        Some(PredRecord {
            slot,
            payload: [payload as u32, (payload >> 32) as u32],
            op: pred.op(),
            kind: pred.value_kind(),
        })
    }

    /// The attribute slot the predicate reads the event at.
    pub(crate) fn slot(&self) -> AttrId {
        self.slot
    }

    /// The comparison operator.
    pub(crate) fn op(&self) -> CompareOp {
        self.op
    }

    fn payload(&self) -> u64 {
        u64::from(self.payload[0]) | u64::from(self.payload[1]) << 32
    }

    /// A finite numeric constant as `f64`; `None` for every other
    /// constant.
    pub(crate) fn numeric(&self) -> Option<f64> {
        match self.kind {
            ValueKind::Int => Some(self.payload() as i64 as f64),
            ValueKind::Float => Some(f64::from_bits(self.payload())).filter(|x| x.is_finite()),
            ValueKind::Bool | ValueKind::Str => None,
        }
    }
}

/// Per string id: the string (`None` once freed) and how many live
/// records hold the id.
type StringEntry = (Option<Arc<str>>, u32);

/// The string of live string id `id` — the key `by_str` hashes it by.
fn live_text(entries: &[StringEntry], id: u32) -> &str {
    entries[id as usize]
        .0
        .as_deref()
        .expect("the lookup table holds only live string ids")
}

/// String constants, each stored once however many predicates compare
/// against it, and freed with the last of them.
#[derive(Debug, Clone, Default)]
struct StringTable<S = RandomState> {
    entries: Vec<StringEntry>,
    by_str: IdTable<S>,
    free: Vec<u32>,
}

impl<S: BuildHasher> StringTable<S> {
    fn id_of(&self, s: &str) -> Option<u32> {
        self.by_str.get(s, |id| live_text(&self.entries, id))
    }

    /// Takes one reference on `s`, storing it first if it is new; the
    /// same free-list-first rule as predicate ids.
    fn add_ref(&mut self, s: &Arc<str>) -> u32 {
        if let Some(id) = self.id_of(s) {
            self.entries[id as usize].1 += 1;
            return id;
        }
        let entry = (Some(Arc::clone(s)), 1);
        let id = match self.free.pop() {
            Some(id) => {
                self.entries[id as usize] = entry;
                id
            }
            None => {
                let id = u32::try_from(self.entries.len()).expect("fewer than 2^32 strings");
                self.entries.push(entry);
                id
            }
        };
        self.by_str.insert(id, |id| live_text(&self.entries, id));
        id
    }

    fn release(&mut self, id: u32) {
        let refs = &mut self.entries[id as usize].1;
        *refs -= 1;
        if *refs == 0 {
            // Out of the table while the string still keys it.
            self.by_str.remove(id, |id| live_text(&self.entries, id));
            self.entries[id as usize].0 = None;
            self.free.push(id);
        }
    }

    fn text(&self, id: u64) -> Option<&Arc<str>> {
        self.entries
            .get(id as usize)
            .and_then(|(text, _)| text.as_ref())
    }

    fn heap_bytes(&self) -> usize {
        let live: usize = self
            .entries
            .iter()
            .flat_map(|(text, _)| text)
            .map(|t| t.len() + 16)
            .sum();
        live + self.entries.capacity() * std::mem::size_of::<StringEntry>()
            + self.by_str.heap_bytes()
            + self.free.capacity() * std::mem::size_of::<u32>()
    }
}

/// Interns predicates so each distinct `attribute OP constant` filter is
/// stored — and evaluated in phase 1 — exactly once, no matter how many
/// subscriptions share it (paper §3.1).
///
/// # What is stored
///
/// One 16-byte record per predicate id, in one `Vec` indexed by the id:
/// the attribute as its slot in the owning engine's
/// [`PredicateIndex`](boolmatch_index::PredicateIndex) (the caller
/// passes it to [`intern`](PredicateInterner::intern)), the operator,
/// the constant's kind and an 8-byte payload. A string constant is an id
/// into a reference-counted string table, so predicates sharing
/// `"IBM"` share one copy of it. The lookup tables that find an existing
/// predicate or string hold ids only — 4 bytes a slot, at most 3/4 of
/// the slots full — and compare a candidate id's record or string in
/// place; their size follows the peak live count, not the churn.
/// No [`Predicate`] is kept: [`predicate`](PredicateInterner::predicate)
/// rebuilds one from the record and the attribute's name for the cold
/// paths that want it (phase-1 index insert and remove, display), and
/// [`eval`](PredicateInterner::eval) tests an event value on the record
/// in place — the phase-2 leaf comparison.
///
/// # Ids and reference counts
///
/// Reference counts track how many subscription tree leaves point at a
/// predicate; [`release`](PredicateInterner::release) frees the id when
/// the last leaf is unsubscribed, and with it the string constant if no
/// other predicate holds it. A fresh predicate takes the most recently
/// freed id, else the next one past the end, so the same registration
/// order yields the same ids in every engine.
///
/// # Examples
///
/// ```
/// use boolmatch_core::PredicateInterner;
/// use boolmatch_expr::{CompareOp, Predicate};
/// use boolmatch_types::{AttrId, Value};
///
/// let mut interner = PredicateInterner::new();
/// let slot = AttrId::from_index(0);
/// let p = Predicate::new("a", CompareOp::Gt, 10_i64);
/// let (id, fresh) = interner.intern(slot, &p);
/// assert!(fresh);
/// let (again, fresh) = interner.intern(slot, &p);
/// assert_eq!(id, again);
/// assert!(!fresh);
/// assert!(interner.eval(id, &Value::from(11_i64)));
/// assert_eq!(interner.predicate(id, |_| "a"), p);
/// ```
///
/// `S` hashes the lookup tables' keys; like [`HashMap`]'s, the default
/// is seeded per table.
///
/// [`HashMap`]: std::collections::HashMap
#[derive(Debug, Clone, Default)]
pub struct PredicateInterner<S = RandomState> {
    /// Per id, live or freed: a freed id's record is stale until the id
    /// is reused.
    records: Vec<PredRecord>,
    refcounts: Vec<u32>,
    /// The live ids, keyed by their records.
    by_pred: IdTable<S>,
    free: Vec<PredicateId>,
    strings: StringTable<S>,
}

impl PredicateInterner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }
}

impl<S: BuildHasher> PredicateInterner<S> {
    /// An empty interner whose lookup tables hash with `hasher`.
    #[cfg(test)]
    fn with_hasher(hasher: S) -> Self
    where
        S: Clone,
    {
        PredicateInterner {
            records: Vec::new(),
            refcounts: Vec::new(),
            by_pred: IdTable::with_hasher(hasher.clone()),
            free: Vec::new(),
            strings: StringTable {
                entries: Vec::new(),
                by_str: IdTable::with_hasher(hasher),
                free: Vec::new(),
            },
        }
    }

    /// Interns `pred`, whose attribute has slot `slot` in the caller's
    /// phase-1 index, incrementing its reference count. Returns the id
    /// and whether the predicate was newly added (callers register new
    /// predicates with the phase-1 index).
    pub fn intern(&mut self, slot: AttrId, pred: &Predicate) -> (PredicateId, bool) {
        if let Some(id) = self.get(slot, pred) {
            self.refcounts[id.index()] += 1;
            return (id, false);
        }
        let record = PredRecord::new(slot, pred, |s| Some(self.strings.add_ref(s)))
            .expect("adding a string reference always yields an id");
        let id = match self.free.pop() {
            Some(id) => {
                self.records[id.index()] = record;
                self.refcounts[id.index()] = 1;
                id
            }
            None => {
                let id = PredicateId::from_index(self.records.len());
                self.records.push(record);
                self.refcounts.push(1);
                id
            }
        };
        self.by_pred
            .insert(id.raw(), |id| &self.records[id as usize]);
        (id, true)
    }

    /// Decrements the reference count of `id`. Returns `true` when the
    /// count reached zero: the predicate was dropped, its id goes to the
    /// free list and its string constant, unless another predicate holds
    /// it, to the string table's. A caller that must take the predicate
    /// out of its phase-1 index rebuilds it with
    /// [`predicate`](PredicateInterner::predicate) *before* the last
    /// release.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not live (double release).
    pub fn release(&mut self, id: PredicateId) -> bool {
        let rc = &mut self.refcounts[id.index()];
        assert!(*rc > 0, "release of dead predicate {id}");
        *rc -= 1;
        if *rc > 0 {
            return false;
        }
        self.by_pred
            .remove(id.raw(), |id| &self.records[id as usize]);
        let record = self.records[id.index()];
        if record.kind == ValueKind::Str {
            self.strings.release(record.payload() as u32);
        }
        self.free.push(id);
        true
    }

    /// Looks up a predicate on attribute slot `slot` without interning
    /// it.
    pub fn get(&self, slot: AttrId, pred: &Predicate) -> Option<PredicateId> {
        // A string constant the table does not hold: no predicate has it.
        let record = PredRecord::new(slot, pred, |s| self.strings.id_of(s))?;
        self.by_pred
            .get(&record, |id| &self.records[id as usize])
            .map(|id| PredicateId::from_index(id as usize))
    }

    /// The record of live predicate `id`.
    pub(crate) fn record(&self, id: PredicateId) -> &PredRecord {
        &self.records[id.index()]
    }

    /// Rebuilds live predicate `id`, naming its attribute with
    /// `attr_name` of its slot.
    ///
    /// # Panics
    ///
    /// Panics if `id` was never handed out.
    pub fn predicate<'n>(
        &self,
        id: PredicateId,
        attr_name: impl FnOnce(AttrId) -> &'n str,
    ) -> Predicate {
        let r = &self.records[id.index()];
        let payload = r.payload();
        let value = match r.kind {
            ValueKind::Bool => Value::Bool(payload != 0),
            ValueKind::Int => Value::Int(payload as i64),
            ValueKind::Float => Value::Float(f64::from_bits(payload)),
            ValueKind::Str => Value::Str(Arc::clone(
                self.strings
                    .text(payload)
                    .expect("a live string predicate holds its constant"),
            )),
        };
        Predicate::new(attr_name(r.slot), r.op, value)
    }

    // lint: hot-path — a compared leaf's test: one record, one
    // comparison, no constant rebuilt.

    /// Whether an event value satisfies live predicate `id` —
    /// [`CompareOp::eval`] of `value` against the predicate's constant,
    /// decided on the stored record. As there, kinds must agree: a
    /// relational operator across kinds and a string operator on a
    /// non-string are false.
    #[inline]
    pub fn eval(&self, id: PredicateId, value: &Value) -> bool {
        let r = &self.records[id.index()];
        let ord: Ordering = match (value, r.kind) {
            (Value::Bool(b), ValueKind::Bool) => b.cmp(&(r.payload() != 0)),
            (Value::Int(i), ValueKind::Int) => i.cmp(&(r.payload() as i64)),
            (Value::Float(x), ValueKind::Float) => x.total_cmp(&f64::from_bits(r.payload())),
            (Value::Str(s), ValueKind::Str) => {
                let Some(c) = self.strings.text(r.payload()) else {
                    return false;
                };
                match r.op {
                    CompareOp::Prefix => return s.starts_with(&**c),
                    CompareOp::NotPrefix => return !s.starts_with(&**c),
                    CompareOp::Contains => return s.contains(&**c),
                    CompareOp::NotContains => return !s.contains(&**c),
                    _ => (**s).cmp(&**c),
                }
            }
            _ => return false,
        };
        match r.op {
            CompareOp::Eq => ord.is_eq(),
            CompareOp::Ne => ord.is_ne(),
            CompareOp::Lt => ord.is_lt(),
            CompareOp::Le => ord.is_le(),
            CompareOp::Gt => ord.is_gt(),
            CompareOp::Ge => ord.is_ge(),
            CompareOp::Prefix
            | CompareOp::NotPrefix
            | CompareOp::Contains
            | CompareOp::NotContains => false,
        }
    }

    // lint: end-hot-path

    /// Current reference count of `id` (0 for freed slots).
    pub fn refcount(&self, id: PredicateId) -> u32 {
        self.refcounts[id.index()]
    }

    /// Number of live (distinct) predicates.
    pub fn len(&self) -> usize {
        self.by_pred.len
    }

    /// Whether no predicates are live.
    pub fn is_empty(&self) -> bool {
        self.by_pred.len == 0
    }

    /// Size of the dense id space (live + free slots). Scratch tables
    /// indexed by [`PredicateId`] must have at least this capacity.
    pub fn universe(&self) -> usize {
        self.records.len()
    }

    /// Approximate heap bytes owned by the interner, every table
    /// charged at its capacity.
    pub fn heap_bytes(&self) -> usize {
        self.records.capacity() * std::mem::size_of::<PredRecord>()
            + self.refcounts.capacity() * std::mem::size_of::<u32>()
            + self.free.capacity() * std::mem::size_of::<PredicateId>()
            + self.by_pred.heap_bytes()
            + self.strings.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use boolmatch_index::PredicateIndex;
    use boolmatch_types::Event;

    /// The slot of attribute `a` in these tests.
    fn slot() -> AttrId {
        AttrId::from_index(0)
    }

    fn p(v: i64) -> Predicate {
        Predicate::new("a", CompareOp::Eq, v)
    }

    #[test]
    fn interning_is_idempotent() {
        let mut i = PredicateInterner::new();
        let (a, fresh_a) = i.intern(slot(), &p(1));
        let (b, fresh_b) = i.intern(slot(), &p(1));
        assert_eq!(a, b);
        assert!(fresh_a);
        assert!(!fresh_b);
        assert_eq!(i.len(), 1);
        assert_eq!(i.refcount(a), 2);
    }

    #[test]
    fn distinct_predicates_get_distinct_ids() {
        let mut i = PredicateInterner::new();
        let (a, _) = i.intern(slot(), &p(1));
        let (b, _) = i.intern(slot(), &p(2));
        let (c, _) = i.intern(slot(), &Predicate::new("a", CompareOp::Ne, 1_i64));
        // Same constant bits, other kinds or another attribute.
        let (d, _) = i.intern(slot(), &Predicate::new("a", CompareOp::Eq, true));
        let (e, _) = i.intern(
            slot(),
            &Predicate::new("a", CompareOp::Eq, f64::from_bits(1)),
        );
        let (f, _) = i.intern(
            AttrId::from_index(1),
            &Predicate::new("b", CompareOp::Eq, 1_i64),
        );
        let ids = [a, b, c, d, e, f];
        for (n, x) in ids.iter().enumerate() {
            assert!(!ids[..n].contains(x), "{x} issued twice");
        }
        assert_eq!(i.len(), 6);
    }

    #[test]
    fn release_frees_at_zero_and_recycles() {
        let mut i = PredicateInterner::new();
        let (a, _) = i.intern(slot(), &p(1));
        i.intern(slot(), &p(1));
        assert!(!i.release(a));
        assert!(i.release(a));
        assert_eq!(i.len(), 0);
        assert_eq!(i.universe(), 1);
        // Recycled slot: same dense index for a fresh predicate.
        let (b, fresh) = i.intern(slot(), &p(99));
        assert!(fresh);
        assert_eq!(b.index(), a.index());
        assert_eq!(i.predicate(b, |_| "a"), p(99));
    }

    #[test]
    #[should_panic(expected = "release of dead predicate")]
    fn double_release_panics() {
        let mut i = PredicateInterner::new();
        let (a, _) = i.intern(slot(), &p(1));
        i.release(a);
        i.release(a);
    }

    #[test]
    fn get_does_not_intern() {
        let mut i = PredicateInterner::new();
        assert_eq!(i.get(slot(), &p(1)), None);
        let (a, _) = i.intern(slot(), &p(1));
        assert_eq!(i.get(slot(), &p(1)), Some(a));
        assert_eq!(i.refcount(a), 1);
        // An unknown string constant finds nothing and stores nothing.
        let s = Predicate::new("a", CompareOp::Eq, "IBM");
        assert_eq!(i.get(slot(), &s), None);
        assert_eq!(i.strings.entries.len(), 0);
    }

    #[test]
    fn universe_never_shrinks() {
        let mut i = PredicateInterner::new();
        let ids: Vec<_> = (0..10).map(|v| i.intern(slot(), &p(v)).0).collect();
        for id in &ids {
            i.release(*id);
        }
        assert_eq!(i.len(), 0);
        assert_eq!(i.universe(), 10);
    }

    #[test]
    fn records_evaluate_exactly_like_the_predicates_they_store() {
        let ops = [
            CompareOp::Eq,
            CompareOp::Ne,
            CompareOp::Lt,
            CompareOp::Le,
            CompareOp::Gt,
            CompareOp::Ge,
            CompareOp::Prefix,
            CompareOp::NotPrefix,
            CompareOp::Contains,
            CompareOp::NotContains,
        ];
        let values: Vec<Value> = vec![
            false.into(),
            true.into(),
            i64::MIN.into(),
            (-1_i64).into(),
            0_i64.into(),
            1_i64.into(),
            i64::MAX.into(),
            f64::NAN.into(),
            (-f64::NAN).into(),
            f64::NEG_INFINITY.into(),
            (-0.0_f64).into(),
            0.0_f64.into(),
            1.5_f64.into(),
            f64::INFINITY.into(),
            "".into(),
            "a".into(),
            "ab".into(),
            "abc".into(),
            "b".into(),
            "bab".into(),
        ];
        let mut interner = PredicateInterner::new();
        let mut checked = 0;
        for op in ops {
            for constant in &values {
                let pred = Predicate::new("v", op, constant.clone());
                let (id, fresh) = interner.intern(slot(), &pred);
                assert!(fresh, "{pred}");
                for value in &values {
                    assert_eq!(
                        interner.eval(id, value),
                        pred.eval_value(value),
                        "{pred} on {value:?}"
                    );
                    checked += 1;
                }
            }
        }
        assert_eq!(checked, ops.len() * values.len() * values.len());
    }

    #[test]
    fn string_constants_are_shared_and_freed_with_their_last_predicate() {
        let mut index: PredicateIndex<PredicateId> = PredicateIndex::new();
        let mut i = PredicateInterner::new();
        let s = index.intern_attr("s");
        let intern = |i: &mut PredicateInterner, index: &mut PredicateIndex<_>, p: Predicate| {
            let (id, fresh) = i.intern(s, &p);
            assert!(fresh);
            index.insert(id, &p);
            id
        };
        // The last release of a predicate: out of the index first, with
        // the constant its record names.
        let release = |i: &mut PredicateInterner, index: &mut PredicateIndex<_>, id| {
            assert_eq!(i.refcount(id), 1);
            let pred = i.predicate(id, |slot| index.attr_name(slot));
            assert!(index.remove(id, &pred), "{pred} was indexed");
            assert!(i.release(id));
        };
        let event = |v: &str| Event::builder().attr("s", v).build();

        let eq = intern(
            &mut i,
            &mut index,
            Predicate::new("s", CompareOp::Eq, "IBM"),
        );
        let prefix = intern(
            &mut i,
            &mut index,
            Predicate::new("s", CompareOp::Prefix, "IBM"),
        );
        assert_eq!(i.strings.entries.len(), 1, "one copy of \"IBM\"");
        release(&mut i, &mut index, eq);
        assert!(i.eval(prefix, &Value::from("IBMX")));
        assert!(!i.eval(prefix, &Value::from("IB")));
        assert_eq!(index.matching(&event("IBMX")), vec![prefix]);

        // The last holder goes: the string's id is free, and the next
        // string takes it.
        release(&mut i, &mut index, prefix);
        assert_eq!(i.strings.id_of("IBM"), None);
        let msft = intern(
            &mut i,
            &mut index,
            Predicate::new("s", CompareOp::Eq, "MSFT"),
        );
        assert_eq!(i.strings.entries.len(), 1, "the freed string id was reused");
        assert_eq!(i.strings.id_of("MSFT"), Some(0));
        assert!(i.eval(msft, &Value::from("MSFT")));
        assert!(!i.eval(msft, &Value::from("IBM")));
        assert!(index.matching(&event("IBM")).is_empty());
        assert_eq!(index.matching(&event("MSFT")), vec![msft]);
        release(&mut i, &mut index, msft);
        assert_eq!(index.predicate_count(), 0);
        assert!(i.is_empty());
        assert_eq!(i.strings.by_str.len, 0);
    }

    /// Hashes every key to `u64::MAX`: each key's probe sequence starts
    /// at the last slot, so one run holds every id and wraps to slot 0.
    #[derive(Default)]
    struct Collide;

    impl std::hash::Hasher for Collide {
        fn finish(&self) -> u64 {
            u64::MAX
        }

        fn write(&mut self, _: &[u8]) {}
    }

    /// The fewest slots that keep `peak` ids at most 3/4 full.
    fn slot_bound(peak: usize) -> usize {
        (peak * 4).div_ceil(3).next_power_of_two()
    }

    #[test]
    fn colliding_lookup_tables_agree_with_a_map_under_churn() {
        use std::collections::{HashMap, HashSet};
        use std::hash::BuildHasherDefault;

        // Two attributes × (ints on `=` and `<`, strings on `=` and
        // `prefix`, a float, a bool): ids and strings are reused.
        let mut domain = Vec::new();
        for (slot, attr) in [(0, "a"), (1, "b")] {
            let mut add = |op, value: Value| {
                domain.push((AttrId::from_index(slot), Predicate::new(attr, op, value)));
            };
            for v in 0..6_i64 {
                add(CompareOp::Eq, v.into());
                add(CompareOp::Lt, v.into());
            }
            for s in ["s0", "s1", "s2", "s3", "s4"] {
                add(CompareOp::Eq, s.into());
                add(CompareOp::Prefix, s.into());
            }
            add(CompareOp::Ge, 0.5_f64.into());
            add(CompareOp::Ge, (-0.0_f64).into());
            add(CompareOp::Eq, true.into());
        }
        let mut i = PredicateInterner::with_hasher(BuildHasherDefault::<Collide>::default());
        // Per domain index: the id and reference count; and the id
        // issue rule (free list first, else append).
        let mut live: HashMap<usize, (PredicateId, u32)> = HashMap::new();
        let mut free: Vec<PredicateId> = Vec::new();
        let mut universe = 0;
        let (mut peak_preds, mut peak_strings) = (0, 0);
        let mut state = 0x29_u64;
        for step in 0..3_000 {
            // xorshift64*: deterministic, no dependency.
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            let draw = state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33;
            let k = draw as usize % domain.len();
            let (slot, pred) = &domain[k];
            // Interning slightly outweighs releasing, so the live set
            // rises and falls.
            match live.get_mut(&k) {
                Some((id, refs)) if draw % 100 >= 55 => {
                    *refs -= 1;
                    let dropped = *refs == 0;
                    assert_eq!(i.release(*id), dropped, "step {step}: release {pred}");
                    if dropped {
                        free.push(*id);
                        live.remove(&k);
                    }
                }
                Some((id, refs)) => {
                    *refs += 1;
                    assert_eq!(i.intern(*slot, pred), (*id, false), "step {step}: {pred}");
                }
                None => {
                    let expected = free.pop().unwrap_or_else(|| {
                        universe += 1;
                        PredicateId::from_index(universe - 1)
                    });
                    assert_eq!(
                        i.intern(*slot, pred),
                        (expected, true),
                        "step {step}: {pred}"
                    );
                    live.insert(k, (expected, 1));
                }
            }
            for (k, (slot, pred)) in domain.iter().enumerate() {
                let expected = live.get(&k).map(|&(id, _)| id);
                assert_eq!(i.get(*slot, pred), expected, "step {step}: get {pred}");
            }
            assert_eq!(i.len(), live.len(), "step {step}");
            let strings: HashSet<&Value> = live
                .keys()
                .map(|&k| domain[k].1.value())
                .filter(|v| matches!(v, Value::Str(_)))
                .collect();
            assert_eq!(i.strings.by_str.len, strings.len(), "step {step}");
            peak_preds = peak_preds.max(live.len());
            peak_strings = peak_strings.max(strings.len());
            assert!(
                i.by_pred.slots.len() <= slot_bound(peak_preds),
                "step {step}"
            );
            assert!(
                i.strings.by_str.slots.len() <= slot_bound(peak_strings),
                "step {step}"
            );
        }
        assert_eq!(i.universe(), universe);
        assert!(peak_preds > 20, "the live set reached {peak_preds}");
    }

    #[test]
    fn heap_bytes_stay_flat_under_churn_at_a_constant_live_count() {
        // Same-kind, same-width replacements: an int for an int, an
        // 8-digit string for an 8-digit string.
        let pred = |n: usize| {
            if n % 2 == 0 {
                Predicate::new("a", CompareOp::Eq, n as i64)
            } else {
                Predicate::new("a", CompareOp::Eq, format!("{n:08}"))
            }
        };
        const LIVE: usize = 1_000;
        let mut i = PredicateInterner::new();
        let mut live: Vec<PredicateId> = (0..LIVE).map(|n| i.intern(slot(), &pred(n)).0).collect();
        // 50 rounds, each replacing every live predicate once: 50 000
        // release/intern pairs. The first round sizes the free lists.
        let mut settled = None;
        for round in 1..=50 {
            for (at, id) in live.iter_mut().enumerate() {
                assert!(i.release(*id));
                let fresh;
                (*id, fresh) = i.intern(slot(), &pred(round * LIVE + at));
                assert!(fresh);
                assert_eq!(i.len(), LIVE);
                if let Some(bytes) = settled {
                    assert_eq!(i.heap_bytes(), bytes, "round {round}, predicate {at}");
                }
            }
            settled.get_or_insert(i.heap_bytes());
        }
    }
}
