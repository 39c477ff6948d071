//! The per-attribute, per-operator predicate index — phase 1 of the
//! paper's filtering pipeline.

use std::ops::Bound;

use boolmatch_expr::{CompareOp, Predicate};
use boolmatch_types::{AttrId, AttrInterner, Event, Value};

use crate::{BPlusTree, HashIndex};

/// Postings attached to one constant in a range tree: `(id, strict)`
/// for each strict (`<`/`>`) or inclusive (`<=`/`>=`) predicate with
/// that constant. Most constants hold one predicate, so the first
/// posting sits inline in the tree's value and only further ones spill
/// to the heap. Never empty: the constant leaves the tree with its last
/// posting.
#[derive(Debug, Clone)]
struct RangePostings<T> {
    first: (T, bool),
    more: Vec<(T, bool)>,
}

impl<T: Copy + PartialEq> RangePostings<T> {
    fn new(id: T, strict: bool) -> Self {
        RangePostings {
            first: (id, strict),
            more: Vec::new(),
        }
    }

    /// Removes `(id, strict)`: `None` when it was not present, else
    /// whether it was the last posting (the caller then drops the
    /// constant).
    fn remove(&mut self, id: T, strict: bool) -> Option<bool> {
        let posting = (id, strict);
        if self.first == posting {
            return match self.more.pop() {
                Some(next) => {
                    self.first = next;
                    Some(false)
                }
                None => Some(true),
            };
        }
        let pos = self.more.iter().position(|p| *p == posting)?;
        self.more.swap_remove(pos);
        Some(false)
    }

    /// Reports the postings a scan met at this constant: all of them,
    /// or only the inclusive ones when the constant equals the event
    /// value.
    fn report(&self, equal: bool, f: &mut impl FnMut(T)) {
        for &(id, strict) in std::iter::once(&self.first).chain(&self.more) {
            if !(equal && strict) {
                f(id);
            }
        }
    }
}

/// One attribute's worth of operator indexes.
#[derive(Debug, Clone)]
struct AttrBucket<T> {
    /// `=` predicates: hash table keyed by constant (paper: "point
    /// predicates utilise hash tables").
    eq: HashIndex<T>,
    /// `!=` predicates: scanned linearly, skipping entries whose
    /// constant equals the event value. `!=` cannot be range-indexed on
    /// one dimension; the list is usually tiny.
    ne: Vec<(Value, T)>,
    /// `>` / `>=` predicates keyed by constant; an event value `v`
    /// fulfils entries with constant `< v` (both) and `= v` (inclusive
    /// only). ("for range predicates we deploy B+ trees")
    lower: BPlusTree<Value, RangePostings<T>>,
    /// `<` / `<=` predicates keyed by constant; `v` fulfils entries with
    /// constant `> v` (both) and `= v` (inclusive only).
    upper: BPlusTree<Value, RangePostings<T>>,
    /// `prefix` / `!prefix` predicates: `(pattern, id, negated)`.
    prefix: Vec<(Value, T, bool)>,
    /// `contains` / `!contains` predicates: `(pattern, id, negated)`.
    contains: Vec<(Value, T, bool)>,
}

impl<T> Default for AttrBucket<T> {
    fn default() -> Self {
        AttrBucket {
            eq: HashIndex::new(),
            ne: Vec::new(),
            lower: BPlusTree::new(),
            upper: BPlusTree::new(),
            prefix: Vec::new(),
            contains: Vec::new(),
        }
    }
}

/// Summary counters for a [`PredicateIndex`]; see
/// [`PredicateIndex::stats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PredicateIndexStats {
    /// Distinct attributes with at least one predicate registered.
    pub attributes: usize,
    /// Registered equality predicates.
    pub eq: usize,
    /// Registered inequality predicates.
    pub ne: usize,
    /// Registered range predicates (`<`, `<=`, `>`, `>=`).
    pub range: usize,
    /// Registered string-search predicates.
    pub string_search: usize,
}

impl PredicateIndexStats {
    /// Total registered predicates.
    pub fn total(&self) -> usize {
        self.eq + self.ne + self.range + self.string_search
    }
}

/// The phase-1 index: maps an event to the ids of all fulfilled
/// predicates (paper §3.2, upper half of Fig. 2).
///
/// `T` is the posting type — the engines use their `PredicateId`.
/// Every attribute of the event is looked up once; each operator class
/// is served by the structure that suits it (hash table, B+ tree, or a
/// scan for the classes that cannot be one-dimensionally indexed).
///
/// # Examples
///
/// ```
/// use boolmatch_expr::{CompareOp, Predicate};
/// use boolmatch_index::PredicateIndex;
/// use boolmatch_types::Event;
///
/// let mut idx: PredicateIndex<u32> = PredicateIndex::new();
/// idx.insert(0, &Predicate::new("a", CompareOp::Gt, 10_i64));
/// idx.insert(1, &Predicate::new("a", CompareOp::Le, 5_i64));
/// idx.insert(2, &Predicate::new("b", CompareOp::Eq, 1_i64));
///
/// let event = Event::builder().attr("a", 12_i64).attr("b", 1_i64).build();
/// let mut hits = idx.matching(&event);
/// hits.sort();
/// assert_eq!(hits, vec![0, 2]);
/// ```
#[derive(Debug, Clone)]
pub struct PredicateIndex<T> {
    interner: AttrInterner,
    buckets: Vec<AttrBucket<T>>,
    stats: PredicateIndexStats,
}

impl<T: Copy + PartialEq> Default for PredicateIndex<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy + PartialEq> PredicateIndex<T> {
    /// Creates an empty index.
    pub fn new() -> Self {
        PredicateIndex {
            interner: AttrInterner::new(),
            buckets: Vec::new(),
            stats: PredicateIndexStats::default(),
        }
    }

    /// The dense slot of attribute `name`, assigned on first sight —
    /// to this call or to an [`insert`](PredicateIndex::insert) of a
    /// predicate on it. Lets an owner that also evaluates predicates it
    /// does **not** register here key its per-attribute tables on the
    /// same slots [`PredicateIndex::for_each_match`] resolves names to,
    /// instead of keeping a second name table.
    pub fn intern_attr(&mut self, name: &str) -> AttrId {
        self.interner.intern(name)
    }

    /// The slot of attribute `name`, if it has one.
    pub fn attr_slot(&self, name: &str) -> Option<AttrId> {
        self.interner.get(name)
    }

    /// The name of attribute slot `slot`.
    ///
    /// # Panics
    ///
    /// Panics if this index never handed `slot` out.
    pub fn attr_name(&self, slot: AttrId) -> &str {
        self.interner.resolve(slot)
    }

    /// Registers predicate `pred` under posting `id`.
    pub fn insert(&mut self, id: T, pred: &Predicate) {
        let attr = self.interner.intern(pred.attr());
        if attr.index() >= self.buckets.len() {
            self.buckets
                .resize_with(attr.index() + 1, AttrBucket::default);
            self.stats.attributes = self.buckets.len();
        }
        let bucket = &mut self.buckets[attr.index()];
        let constant = pred.value().clone();
        match pred.op() {
            CompareOp::Eq => {
                bucket.eq.insert(constant, id);
                self.stats.eq += 1;
            }
            CompareOp::Ne => {
                bucket.ne.push((constant, id));
                self.stats.ne += 1;
            }
            CompareOp::Gt | CompareOp::Ge => {
                let strict = pred.op() == CompareOp::Gt;
                Self::range_insert(&mut bucket.lower, constant, id, strict);
                self.stats.range += 1;
            }
            CompareOp::Lt | CompareOp::Le => {
                let strict = pred.op() == CompareOp::Lt;
                Self::range_insert(&mut bucket.upper, constant, id, strict);
                self.stats.range += 1;
            }
            CompareOp::Prefix | CompareOp::NotPrefix => {
                let negated = pred.op() == CompareOp::NotPrefix;
                bucket.prefix.push((constant, id, negated));
                self.stats.string_search += 1;
            }
            CompareOp::Contains | CompareOp::NotContains => {
                let negated = pred.op() == CompareOp::NotContains;
                bucket.contains.push((constant, id, negated));
                self.stats.string_search += 1;
            }
        }
    }

    fn range_insert(
        tree: &mut BPlusTree<Value, RangePostings<T>>,
        constant: Value,
        id: T,
        strict: bool,
    ) {
        match tree.get_mut(&constant) {
            Some(postings) => postings.more.push((id, strict)),
            None => {
                tree.insert(constant, RangePostings::new(id, strict));
            }
        }
    }

    /// Unregisters a predicate; returns whether it was present.
    pub fn remove(&mut self, id: T, pred: &Predicate) -> bool {
        let Some(attr) = self.interner.get(pred.attr()) else {
            return false;
        };
        let Some(bucket) = self.buckets.get_mut(attr.index()) else {
            return false;
        };
        let constant = pred.value();
        match pred.op() {
            CompareOp::Eq => {
                let r = bucket.eq.remove(constant, &id);
                if r {
                    self.stats.eq -= 1;
                }
                r
            }
            CompareOp::Ne => {
                let r = remove_pair(&mut bucket.ne, constant, id);
                if r {
                    self.stats.ne -= 1;
                }
                r
            }
            CompareOp::Gt | CompareOp::Ge => {
                let strict = pred.op() == CompareOp::Gt;
                let r = Self::range_remove(&mut bucket.lower, constant, id, strict);
                if r {
                    self.stats.range -= 1;
                }
                r
            }
            CompareOp::Lt | CompareOp::Le => {
                let strict = pred.op() == CompareOp::Lt;
                let r = Self::range_remove(&mut bucket.upper, constant, id, strict);
                if r {
                    self.stats.range -= 1;
                }
                r
            }
            CompareOp::Prefix | CompareOp::NotPrefix => {
                let negated = pred.op() == CompareOp::NotPrefix;
                let r = remove_triple(&mut bucket.prefix, constant, id, negated);
                if r {
                    self.stats.string_search -= 1;
                }
                r
            }
            CompareOp::Contains | CompareOp::NotContains => {
                let negated = pred.op() == CompareOp::NotContains;
                let r = remove_triple(&mut bucket.contains, constant, id, negated);
                if r {
                    self.stats.string_search -= 1;
                }
                r
            }
        }
    }

    fn range_remove(
        tree: &mut BPlusTree<Value, RangePostings<T>>,
        constant: &Value,
        id: T,
        strict: bool,
    ) -> bool {
        let Some(now_empty) = tree
            .get_mut(constant)
            .and_then(|postings| postings.remove(id, strict))
        else {
            return false;
        };
        if now_empty {
            tree.remove(constant);
        }
        true
    }

    /// Collects the ids of all predicates fulfilled by `event`.
    pub fn matching(&self, event: &Event) -> Vec<T> {
        let mut out = Vec::new();
        self.for_each_match(event, |id| out.push(id));
        out
    }

    /// Calls `f` once per fulfilled predicate id, in unspecified order.
    /// Each registered predicate is reported at most once because every
    /// event attribute is inspected exactly once (indexes partition by
    /// attribute and operator).
    pub fn for_each_match(&self, event: &Event, mut f: impl FnMut(T)) {
        for (name, value) in event.iter() {
            let Some(attr) = self.interner.get(name) else {
                continue;
            };
            let Some(bucket) = self.buckets.get(attr.index()) else {
                continue;
            };

            // Point predicates: one hash lookup.
            for &id in bucket.eq.get(value) {
                f(id);
            }

            // Inequality predicates: scan, skip the equal constant.
            for (constant, id) in &bucket.ne {
                if constant.kind() == value.kind() && constant != value {
                    f(*id);
                }
            }

            // `>`/`>=`: constants strictly below `value` fulfil both
            // flavours; a constant equal to `value` fulfils only `>=`.
            // Keys of other kinds must be excluded: the Value total
            // order ranks kinds, so restrict to this kind's span. An
            // attribute without range predicates pays for no scan.
            if !bucket.lower.is_empty() {
                let kind_min = kind_min(value);
                let span = (Bound::Included(&kind_min), Bound::Included(value));
                report_range(bucket.lower.range(span), value, &mut f);
            }

            // `<`/`<=`: constants strictly above fulfil both; equal
            // fulfils only `<=`.
            if !bucket.upper.is_empty() {
                let kind_max = kind_max_bound(value);
                let span = (Bound::Included(value), kind_max.as_ref());
                report_range(bucket.upper.range(span), value, &mut f);
            }

            // String-search predicates: scan. `prefix`/`contains` are
            // not one-dimensionally indexable in general, and the
            // paper's workloads do not use them.
            if let Some(s) = value.as_str() {
                for (pattern, id, negated) in &bucket.prefix {
                    let pat = pattern.as_str().expect("validated at insert");
                    if s.starts_with(pat) != *negated {
                        f(*id);
                    }
                }
                for (pattern, id, negated) in &bucket.contains {
                    let pat = pattern.as_str().expect("validated at insert");
                    if s.contains(pat) != *negated {
                        f(*id);
                    }
                }
            }
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> PredicateIndexStats {
        let mut s = self.stats.clone();
        s.attributes = self.buckets.len();
        s
    }

    /// Total registered predicates.
    pub fn predicate_count(&self) -> usize {
        self.stats.total()
    }

    /// Approximate heap bytes used by all structures.
    pub fn heap_bytes(&self) -> usize {
        let posting = std::mem::size_of::<T>();
        let spilled = |p: &RangePostings<T>| p.more.capacity() * std::mem::size_of::<(T, bool)>();
        let mut total = self.interner.heap_bytes()
            + self.buckets.capacity() * std::mem::size_of::<AttrBucket<T>>();
        for b in &self.buckets {
            total += b.eq.heap_bytes();
            total += b.ne.capacity() * (std::mem::size_of::<Value>() + posting);
            total += b.lower.heap_bytes_with(Value::heap_bytes, spilled);
            total += b.upper.heap_bytes_with(Value::heap_bytes, spilled);
            total += b.prefix.capacity() * (std::mem::size_of::<Value>() + posting + 1);
            total += b.contains.capacity() * (std::mem::size_of::<Value>() + posting + 1);
        }
        total
    }
}

/// Reports the postings a range scan around `value` met: a constant
/// equal to `value` fulfils only its inclusive predicates, every other
/// constant in the scan both flavours.
fn report_range<'a, T: Copy + PartialEq + 'a>(
    scan: impl Iterator<Item = (&'a Value, &'a RangePostings<T>)>,
    value: &Value,
    f: &mut impl FnMut(T),
) {
    for (constant, postings) in scan {
        postings.report(constant == value, f);
    }
}

/// The minimum/maximum `f64` under [`f64::total_cmp`] — NaNs with the
/// sign bit set sort below `-inf`, and positive NaNs above `+inf`.
const F64_TOTAL_MIN: f64 = f64::from_bits(u64::MAX);
const F64_TOTAL_MAX: f64 = f64::from_bits(0x7FFF_FFFF_FFFF_FFFF);

/// The least value of `value`'s kind: the inclusive lower bound
/// restricting a range scan to keys of that kind.
fn kind_min(value: &Value) -> Value {
    match value {
        Value::Bool(_) => Value::Bool(false),
        Value::Int(_) => Value::Int(i64::MIN),
        Value::Float(_) => Value::Float(F64_TOTAL_MIN),
        // Strings sort last and "" is the minimum string.
        Value::Str(_) => Value::from(""),
    }
}

/// Upper bound restricting a range scan to keys of `value`'s kind.
fn kind_max_bound(value: &Value) -> Bound<Value> {
    match value {
        Value::Bool(_) => Bound::Included(Value::Bool(true)),
        Value::Int(_) => Bound::Included(Value::Int(i64::MAX)),
        Value::Float(_) => Bound::Included(Value::Float(F64_TOTAL_MAX)),
        Value::Str(_) => Bound::Unbounded,
    }
}

fn remove_pair<T: PartialEq>(list: &mut Vec<(Value, T)>, constant: &Value, id: T) -> bool {
    if let Some(pos) = list.iter().position(|(c, p)| c == constant && *p == id) {
        list.swap_remove(pos);
        true
    } else {
        false
    }
}

fn remove_triple<T: PartialEq>(
    list: &mut Vec<(Value, T, bool)>,
    constant: &Value,
    id: T,
    negated: bool,
) -> bool {
    if let Some(pos) = list
        .iter()
        .position(|(c, p, n)| c == constant && *p == id && *n == negated)
    {
        list.swap_remove(pos);
        true
    } else {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(pairs: &[(&str, i64)]) -> Event {
        Event::from_pairs(pairs.iter().map(|(n, v)| (*n, *v)))
    }

    fn sorted(mut v: Vec<u32>) -> Vec<u32> {
        v.sort();
        v
    }

    #[test]
    fn eq_predicates_hit_exactly() {
        let mut idx: PredicateIndex<u32> = PredicateIndex::new();
        idx.insert(0, &Predicate::new("a", CompareOp::Eq, 1_i64));
        idx.insert(1, &Predicate::new("a", CompareOp::Eq, 2_i64));
        idx.insert(2, &Predicate::new("b", CompareOp::Eq, 1_i64));
        assert_eq!(sorted(idx.matching(&event(&[("a", 1)]))), vec![0]);
        assert_eq!(sorted(idx.matching(&event(&[("a", 2)]))), vec![1]);
        assert_eq!(sorted(idx.matching(&event(&[("a", 3)]))), Vec::<u32>::new());
        assert_eq!(
            sorted(idx.matching(&event(&[("a", 1), ("b", 1)]))),
            vec![0, 2]
        );
    }

    #[test]
    fn range_predicate_semantics() {
        let mut idx: PredicateIndex<u32> = PredicateIndex::new();
        idx.insert(0, &Predicate::new("x", CompareOp::Gt, 10_i64));
        idx.insert(1, &Predicate::new("x", CompareOp::Ge, 10_i64));
        idx.insert(2, &Predicate::new("x", CompareOp::Lt, 10_i64));
        idx.insert(3, &Predicate::new("x", CompareOp::Le, 10_i64));
        assert_eq!(sorted(idx.matching(&event(&[("x", 11)]))), vec![0, 1]);
        assert_eq!(sorted(idx.matching(&event(&[("x", 10)]))), vec![1, 3]);
        assert_eq!(sorted(idx.matching(&event(&[("x", 9)]))), vec![2, 3]);
    }

    #[test]
    fn ne_predicates() {
        let mut idx: PredicateIndex<u32> = PredicateIndex::new();
        idx.insert(0, &Predicate::new("x", CompareOp::Ne, 5_i64));
        assert_eq!(idx.matching(&event(&[("x", 4)])), vec![0]);
        assert_eq!(idx.matching(&event(&[("x", 5)])), Vec::<u32>::new());
        // missing attribute: no match
        assert_eq!(idx.matching(&event(&[("y", 4)])), Vec::<u32>::new());
        // wrong kind: no match
        let e = Event::builder().attr("x", 4.0).build();
        assert_eq!(idx.matching(&e), Vec::<u32>::new());
    }

    #[test]
    fn kind_isolation_in_range_trees() {
        let mut idx: PredicateIndex<u32> = PredicateIndex::new();
        idx.insert(0, &Predicate::new("x", CompareOp::Gt, 10_i64));
        idx.insert(1, &Predicate::new("x", CompareOp::Gt, 10.0));
        // int event matches only the int predicate
        assert_eq!(idx.matching(&event(&[("x", 11)])), vec![0]);
        // float event matches only the float predicate
        let e = Event::builder().attr("x", 11.0).build();
        assert_eq!(idx.matching(&e), vec![1]);
    }

    #[test]
    fn string_search_predicates() {
        let mut idx: PredicateIndex<u32> = PredicateIndex::new();
        idx.insert(0, &Predicate::new("s", CompareOp::Prefix, "ab"));
        idx.insert(1, &Predicate::new("s", CompareOp::NotPrefix, "ab"));
        idx.insert(2, &Predicate::new("s", CompareOp::Contains, "cd"));
        let e = Event::builder().attr("s", "abcd").build();
        assert_eq!(sorted(idx.matching(&e)), vec![0, 2]);
        let e = Event::builder().attr("s", "xxcd").build();
        assert_eq!(sorted(idx.matching(&e)), vec![1, 2]);
        // Non-string value: no string predicate fires, not even negated.
        assert_eq!(idx.matching(&event(&[("s", 3)])), Vec::<u32>::new());
    }

    #[test]
    fn string_range_predicates() {
        let mut idx: PredicateIndex<u32> = PredicateIndex::new();
        idx.insert(0, &Predicate::new("s", CompareOp::Ge, "m"));
        idx.insert(1, &Predicate::new("s", CompareOp::Lt, "m"));
        let hi = Event::builder().attr("s", "zebra").build();
        let lo = Event::builder().attr("s", "apple").build();
        assert_eq!(idx.matching(&hi), vec![0]);
        assert_eq!(idx.matching(&lo), vec![1]);
    }

    #[test]
    fn remove_predicates() {
        let mut idx: PredicateIndex<u32> = PredicateIndex::new();
        let p0 = Predicate::new("a", CompareOp::Gt, 1_i64);
        let p1 = Predicate::new("a", CompareOp::Eq, 5_i64);
        idx.insert(0, &p0);
        idx.insert(1, &p1);
        assert_eq!(idx.predicate_count(), 2);
        assert!(idx.remove(0, &p0));
        assert!(!idx.remove(0, &p0));
        assert_eq!(idx.predicate_count(), 1);
        assert_eq!(idx.matching(&event(&[("a", 5)])), vec![1]);
        assert!(idx.remove(1, &p1));
        assert_eq!(idx.matching(&event(&[("a", 5)])), Vec::<u32>::new());
        assert_eq!(idx.predicate_count(), 0);
    }

    #[test]
    fn remove_unknown_attribute_is_false() {
        let mut idx: PredicateIndex<u32> = PredicateIndex::new();
        assert!(!idx.remove(0, &Predicate::new("zzz", CompareOp::Eq, 1_i64)));
    }

    #[test]
    fn stats_track_classes() {
        let mut idx: PredicateIndex<u32> = PredicateIndex::new();
        idx.insert(0, &Predicate::new("a", CompareOp::Eq, 1_i64));
        idx.insert(1, &Predicate::new("a", CompareOp::Ne, 1_i64));
        idx.insert(2, &Predicate::new("a", CompareOp::Lt, 1_i64));
        idx.insert(3, &Predicate::new("b", CompareOp::Contains, "x"));
        let s = idx.stats();
        assert_eq!(s.eq, 1);
        assert_eq!(s.ne, 1);
        assert_eq!(s.range, 1);
        assert_eq!(s.string_search, 1);
        assert_eq!(s.attributes, 2);
        assert_eq!(s.total(), 4);
    }

    #[test]
    fn matching_agrees_with_direct_evaluation() {
        // Exhaustive check on a small grid: index-based matching ==
        // Predicate::eval_event for every registered predicate.
        let mut idx: PredicateIndex<u32> = PredicateIndex::new();
        let mut preds = Vec::new();
        let ops = [
            CompareOp::Eq,
            CompareOp::Ne,
            CompareOp::Lt,
            CompareOp::Le,
            CompareOp::Gt,
            CompareOp::Ge,
        ];
        let mut id = 0u32;
        for attr in ["a", "b"] {
            for op in ops {
                for c in [-1i64, 0, 1] {
                    let p = Predicate::new(attr, op, c);
                    idx.insert(id, &p);
                    preds.push(p);
                    id += 1;
                }
            }
        }
        for av in [-2i64, -1, 0, 1, 2] {
            for bv in [-1i64, 0, 3] {
                let e = event(&[("a", av), ("b", bv)]);
                let got = sorted(idx.matching(&e));
                let want: Vec<u32> = preds
                    .iter()
                    .enumerate()
                    .filter(|(_, p)| p.eval_event(&e))
                    .map(|(i, _)| i as u32)
                    .collect();
                assert_eq!(got, want, "event {e}");
            }
        }
    }

    #[test]
    fn range_scans_report_the_same_ids_for_every_kind() {
        // Constants of all four kinds under all four range operators
        // on one attribute: the scan must stay inside the event value's
        // kind span at both ends.
        let constants: [Value; 9] = [
            false.into(),
            true.into(),
            (-3_i64).into(),
            7_i64.into(),
            (-0.5_f64).into(),
            7.0_f64.into(),
            "".into(),
            "m".into(),
            "mz".into(),
        ];
        let mut idx: PredicateIndex<u32> = PredicateIndex::new();
        let mut preds = Vec::new();
        for op in [CompareOp::Lt, CompareOp::Le, CompareOp::Gt, CompareOp::Ge] {
            for c in &constants {
                let p = Predicate::new("v", op, c.clone());
                idx.insert(preds.len() as u32, &p);
                preds.push(p);
            }
        }
        let probes: [Value; 5] = [
            f64::NAN.into(),
            i64::MAX.into(),
            "n".into(),
            8.5_f64.into(),
            "m".into(),
        ];
        for v in constants.iter().chain(&probes) {
            let e = Event::builder().attr("v", v.clone()).build();
            let want: Vec<u32> = (0..preds.len() as u32)
                .filter(|&i| preds[i as usize].eval_event(&e))
                .collect();
            assert_eq!(sorted(idx.matching(&e)), want, "event {e}");
        }
    }

    #[test]
    fn attribute_slots_are_shared_with_unregistered_predicates() {
        let mut idx: PredicateIndex<u32> = PredicateIndex::new();
        // A slot handed out without a predicate: events carrying the
        // attribute find nothing under it.
        let b = idx.intern_attr("b");
        assert_eq!(idx.attr_slot("b"), Some(b));
        assert_eq!(idx.attr_slot("a"), None);
        assert_eq!(idx.matching(&event(&[("b", 1)])), Vec::<u32>::new());
        // Registering on a later attribute leaves `b` bucket-less or
        // empty, and registering on `b` reuses its slot.
        idx.insert(0, &Predicate::new("a", CompareOp::Eq, 1_i64));
        assert_eq!(idx.matching(&event(&[("a", 1), ("b", 1)])), vec![0]);
        idx.insert(1, &Predicate::new("b", CompareOp::Eq, 1_i64));
        assert_eq!(idx.intern_attr("b"), b);
        assert_ne!(idx.attr_slot("a"), Some(b));
        assert_eq!(
            sorted(idx.matching(&event(&[("a", 1), ("b", 1)]))),
            vec![0, 1]
        );
    }

    #[test]
    fn shared_range_constants_match_and_drain_in_every_order() {
        // Four postings on one constant, both strictnesses, on each
        // side: the first inline, the rest spilled. Removed in every
        // order, the survivors keep matching until the constant leaves.
        let preds = [
            Predicate::new("x", CompareOp::Gt, 5_i64),
            Predicate::new("x", CompareOp::Ge, 5_i64),
            Predicate::new("x", CompareOp::Gt, 5_i64),
            Predicate::new("x", CompareOp::Ge, 5_i64),
            Predicate::new("x", CompareOp::Lt, 5_i64),
            Predicate::new("x", CompareOp::Le, 5_i64),
            Predicate::new("x", CompareOp::Le, 5_i64),
            Predicate::new("x", CompareOp::Lt, 5_i64),
        ];
        let events = [event(&[("x", 4)]), event(&[("x", 5)]), event(&[("x", 6)])];
        for side in [0..4usize, 4..8] {
            let ids: Vec<u32> = side.map(|i| i as u32).collect();
            let mut orders = vec![ids.clone()];
            // Every permutation of the four ids.
            while let Some(next) = next_permutation(orders.last().unwrap()) {
                orders.push(next);
            }
            assert_eq!(orders.len(), 24);
            for order in orders {
                let mut idx: PredicateIndex<u32> = PredicateIndex::new();
                for &id in &ids {
                    idx.insert(id, &preds[id as usize]);
                }
                let mut live = ids.clone();
                for &gone in &order {
                    for e in &events {
                        let want: Vec<u32> = live
                            .iter()
                            .copied()
                            .filter(|&id| preds[id as usize].eval_event(e))
                            .collect();
                        assert_eq!(sorted(idx.matching(e)), sorted(want), "{order:?} on {e}");
                    }
                    assert!(idx.remove(gone, &preds[gone as usize]), "{order:?}");
                    assert!(!idx.remove(gone, &preds[gone as usize]), "{order:?} twice");
                    live.retain(|&id| id != gone);
                }
                assert_eq!(idx.predicate_count(), 0);
                let (lower, upper) = (&idx.buckets[0].lower, &idx.buckets[0].upper);
                assert!(lower.is_empty() && upper.is_empty(), "{order:?}");
            }
        }
    }

    /// The lexicographically next permutation of `v`, if any.
    fn next_permutation(v: &[u32]) -> Option<Vec<u32>> {
        let mut v = v.to_vec();
        let i = (1..v.len()).rev().find(|&i| v[i - 1] < v[i])?;
        let j = (i..v.len()).rev().find(|&j| v[j] > v[i - 1])?;
        v.swap(i - 1, j);
        v[i..].reverse();
        Some(v)
    }

    #[test]
    fn heap_bytes_nonzero_once_populated() {
        let mut idx: PredicateIndex<u32> = PredicateIndex::new();
        idx.insert(0, &Predicate::new("a", CompareOp::Gt, 1_i64));
        assert!(idx.heap_bytes() > 0);
    }
}
