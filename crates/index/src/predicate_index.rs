//! The per-attribute, per-operator predicate index — phase 1 of the
//! paper's filtering pipeline.

use std::collections::HashMap;
use std::sync::Arc;

use boolmatch_expr::{CompareOp, Predicate};
use boolmatch_types::{AttrId, AttrInterner, Event, Value, ValueKind};

/// Unsorted entries a column takes before it merges them into its
/// sorted part. A subscribe then moves no sorted entry; a merge moves
/// each sorted entry at most once per this many inserts.
const MERGE_AT: usize = 32;

/// The range predicates of one (operator, value kind) on one attribute
/// ("for range predicates we deploy B+ trees"): their constants' keys
/// and their ids in two parallel arrays — a B+ tree's leaf level
/// without the inner nodes. The first `sorted` entries are sorted by
/// key; new entries go to the unsorted tail after them. For an event
/// value, the fulfilled sorted entries are one prefix (`>`, `>=`) or
/// one suffix (`<`, `<=`), found by one binary search.
#[derive(Debug, Clone)]
struct Column<K, T> {
    op: CompareOp,
    kind: ValueKind,
    keys: Vec<K>,
    ids: Vec<T>,
    sorted: usize,
}

impl<K: Ord + Clone, T: Copy + PartialEq> Column<K, T> {
    /// Whether event key `v` fulfils this column's predicate on
    /// constant key `c`.
    fn holds(&self, v: &K, c: &K) -> bool {
        match self.op {
            CompareOp::Gt => v > c,
            CompareOp::Ge => v >= c,
            CompareOp::Lt => v < c,
            CompareOp::Le => v <= c,
            op => unreachable!("a range column holds no `{op}` predicate"),
        }
    }

    fn insert(&mut self, key: K, id: T) {
        push_tight(&mut self.keys, key);
        push_tight(&mut self.ids, id);
        if self.keys.len() - self.sorted == MERGE_AT {
            self.merge_tail();
        }
    }

    /// Sorts the tail and merges it into the sorted part from the back:
    /// each step moves the larger of the two heads into the last open
    /// slot, so each sorted entry moves at most once.
    fn merge_tail(&mut self) {
        let (keys, ids) = (&self.keys[self.sorted..], &self.ids[self.sorted..]);
        let mut tail: Vec<(K, T)> = keys.iter().cloned().zip(ids.iter().copied()).collect();
        tail.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        let (mut next, mut open) = (self.sorted, self.keys.len());
        while let Some((key, id)) = tail.last_mut() {
            open -= 1;
            if next > 0 && self.keys[next - 1] > *key {
                next -= 1;
                self.keys.swap(next, open);
                self.ids.swap(next, open);
            } else {
                std::mem::swap(&mut self.keys[open], key);
                self.ids[open] = *id;
                tail.pop();
            }
        }
        self.sorted = self.keys.len();
    }

    /// Removes entry `(key, id)`; returns whether it was present. A
    /// column left with more than an eighth of its length spare is
    /// shrunk to fit, so its bytes follow the live set.
    fn remove(&mut self, key: &K, id: T) -> bool {
        let first = self.keys[..self.sorted].partition_point(|c| c < key);
        let equal = (first..self.sorted).take_while(|&i| self.keys[i] == *key);
        let Some(at) = equal
            .chain(self.sorted..self.keys.len())
            .find(|&i| self.ids[i] == id && self.keys[i] == *key)
        else {
            return false;
        };
        if at < self.sorted {
            self.sorted -= 1;
        }
        self.keys.remove(at);
        self.ids.remove(at);
        if self.keys.capacity() - self.keys.len() > self.keys.len() / 8 {
            self.keys.shrink_to_fit();
            self.ids.shrink_to_fit();
        }
        true
    }

    /// Reports every id whose constant event key `v` fulfils: one
    /// contiguous run of the sorted part, then a scan of the tail.
    fn for_each_fulfilled(&self, v: &K, f: &mut impl FnMut(T)) {
        let (keys, tail_keys) = self.keys.split_at(self.sorted);
        let (ids, tail_ids) = self.ids.split_at(self.sorted);
        let run = match self.op {
            CompareOp::Gt | CompareOp::Ge => &ids[..keys.partition_point(|c| self.holds(v, c))],
            _ => &ids[keys.partition_point(|c| !self.holds(v, c))..],
        };
        run.iter().copied().for_each(&mut *f);
        for (c, &id) in tail_keys.iter().zip(tail_ids) {
            if self.holds(v, c) {
                f(id);
            }
        }
    }

    /// Exact heap bytes: both arrays at capacity, plus what `payload`
    /// charges each key beyond it.
    fn heap_bytes(&self, payload: impl Fn(&K) -> usize) -> usize {
        self.keys.capacity() * std::mem::size_of::<K>()
            + self.ids.capacity() * std::mem::size_of::<T>()
            + self.keys.iter().map(payload).sum::<usize>()
    }
}

/// Pushes `e`, growing a full `list` by an eighth (at least 4) rather
/// than doubling it: a column is charged at its capacity.
fn push_tight<E>(list: &mut Vec<E>, e: E) {
    if list.len() == list.capacity() {
        list.reserve_exact((list.len() / 8).max(4));
    }
    list.push(e);
}

/// The column of `columns` for `(op, kind)`; a new, empty one if none.
fn column_for<K: Ord + Clone, T: Copy + PartialEq>(
    columns: &mut Vec<Column<K, T>>,
    op: CompareOp,
    kind: ValueKind,
) -> &mut Column<K, T> {
    let at = match columns.iter().position(|c| c.op == op && c.kind == kind) {
        Some(at) => at,
        None => {
            columns.reserve_exact(1);
            columns.push(Column {
                op,
                kind,
                keys: Vec::new(),
                ids: Vec::new(),
                sorted: 0,
            });
            columns.len() - 1
        }
    };
    &mut columns[at]
}

/// The key a range constant or event value sorts by in its column.
enum RangeKey<'a> {
    /// A bool, int or float as an `i64`: a float by the bit transform
    /// of [`f64::total_cmp`], so NaNs and ±0.0 order exactly as
    /// `CompareOp::eval` orders them.
    Ordinal(ValueKind, i64),
    /// A string, as itself.
    Text(&'a Arc<str>),
}

fn range_key(value: &Value) -> RangeKey<'_> {
    let ordinal = match *value {
        Value::Bool(b) => i64::from(b),
        Value::Int(i) => i,
        Value::Float(x) => {
            let bits = x.to_bits() as i64;
            bits ^ (((bits >> 63) as u64) >> 1) as i64
        }
        Value::Str(ref s) => return RangeKey::Text(s),
    };
    RangeKey::Ordinal(value.kind(), ordinal)
}

/// One attribute's worth of operator indexes.
#[derive(Debug, Clone)]
struct AttrBucket<T> {
    /// `=` predicates: hash table keyed by constant (paper: "point
    /// predicates utilise hash tables"). A constant leaves the table
    /// with its last posting.
    eq: HashMap<Value, Vec<T>>,
    /// `!=` predicates: scanned linearly, skipping entries whose
    /// constant equals the event value. `!=` cannot be range-indexed on
    /// one dimension; the list is usually tiny.
    ne: Vec<(Value, T)>,
    /// `>`, `>=`, `<` and `<=` predicates on bool, int and float
    /// constants: one [`Column`] per (operator, kind) in use, so an
    /// attribute without range predicates holds no column.
    ordinal: Vec<Column<i64, T>>,
    /// The same for string constants: one column per operator in use.
    text: Vec<Column<Arc<str>, T>>,
    /// `prefix` / `!prefix` predicates: `(pattern, id, negated)`.
    prefix: Vec<(Value, T, bool)>,
    /// `contains` / `!contains` predicates: `(pattern, id, negated)`.
    contains: Vec<(Value, T, bool)>,
}

impl<T> Default for AttrBucket<T> {
    fn default() -> Self {
        AttrBucket {
            eq: HashMap::new(),
            ne: Vec::new(),
            ordinal: Vec::new(),
            text: Vec::new(),
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
/// is served by the structure that suits it (hash table, sorted column,
/// or a scan for the classes that cannot be one-dimensionally indexed).
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
                bucket.eq.entry(constant).or_default().push(id);
                self.stats.eq += 1;
            }
            CompareOp::Ne => {
                bucket.ne.push((constant, id));
                self.stats.ne += 1;
            }
            op @ (CompareOp::Gt | CompareOp::Ge | CompareOp::Lt | CompareOp::Le) => {
                match range_key(&constant) {
                    RangeKey::Ordinal(kind, key) => {
                        column_for(&mut bucket.ordinal, op, kind).insert(key, id);
                    }
                    RangeKey::Text(s) => {
                        column_for(&mut bucket.text, op, ValueKind::Str).insert(s.clone(), id);
                    }
                }
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
                let ids = bucket.eq.get_mut(constant);
                let r = ids.is_some_and(|ids| swap_remove_first(ids, |p| *p == id));
                if r {
                    if bucket.eq[constant].is_empty() {
                        bucket.eq.remove(constant);
                    }
                    self.stats.eq -= 1;
                }
                r
            }
            CompareOp::Ne => {
                let r = swap_remove_first(&mut bucket.ne, |(c, p)| c == constant && *p == id);
                if r {
                    self.stats.ne -= 1;
                }
                r
            }
            op @ (CompareOp::Gt | CompareOp::Ge | CompareOp::Lt | CompareOp::Le) => {
                let r = match range_key(constant) {
                    RangeKey::Ordinal(kind, key) => bucket
                        .ordinal
                        .iter_mut()
                        .find(|c| c.op == op && c.kind == kind)
                        .is_some_and(|c| c.remove(&key, id)),
                    RangeKey::Text(s) => bucket
                        .text
                        .iter_mut()
                        .find(|c| c.op == op)
                        .is_some_and(|c| c.remove(s, id)),
                };
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
            if let Some(ids) = bucket.eq.get(value) {
                ids.iter().copied().for_each(&mut f);
            }

            // Inequality predicates: scan, skip the equal constant.
            for (constant, id) in &bucket.ne {
                if constant.kind() == value.kind() && constant != value {
                    f(*id);
                }
            }

            // Range predicates: one run per column of the value's kind.
            match range_key(value) {
                RangeKey::Ordinal(kind, key) => {
                    for column in bucket.ordinal.iter().filter(|c| c.kind == kind) {
                        column.for_each_fulfilled(&key, &mut f);
                    }
                }
                RangeKey::Text(s) => {
                    for column in &bucket.text {
                        column.for_each_fulfilled(s, &mut f);
                    }
                }
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

    /// Heap bytes used by all structures: every list and column at its
    /// capacity, plus string payloads, and the equality hash tables at
    /// their capacity with 8 bytes of overhead a slot.
    pub fn heap_bytes(&self) -> usize {
        let posting = std::mem::size_of::<T>();
        let eq_table = |table: &HashMap<Value, Vec<T>>| {
            let slot = std::mem::size_of::<Value>() + std::mem::size_of::<Vec<T>>() + 8;
            let entries: usize = table
                .iter()
                .map(|(k, ids)| k.heap_bytes() + ids.capacity() * posting)
                .sum();
            entries + table.capacity() * slot
        };
        let mut total = self.interner.heap_bytes()
            + self.buckets.capacity() * std::mem::size_of::<AttrBucket<T>>();
        for b in &self.buckets {
            total += eq_table(&b.eq);
            total += b.ne.capacity() * (std::mem::size_of::<Value>() + posting);
            total += b.ordinal.capacity() * std::mem::size_of::<Column<i64, T>>();
            total += b.ordinal.iter().map(|c| c.heap_bytes(|_| 0)).sum::<usize>();
            total += b.text.capacity() * std::mem::size_of::<Column<Arc<str>, T>>();
            // Each string key as `Value::heap_bytes` charges it.
            total += b
                .text
                .iter()
                .map(|c| c.heap_bytes(|s| s.len() + 16))
                .sum::<usize>();
            total += b.prefix.capacity() * (std::mem::size_of::<Value>() + posting + 1);
            total += b.contains.capacity() * (std::mem::size_of::<Value>() + posting + 1);
        }
        total
    }
}

/// Swap-removes the first element of `list` that `is` picks; returns
/// whether there was one.
fn swap_remove_first<E>(list: &mut Vec<E>, is: impl FnMut(&E) -> bool) -> bool {
    let Some(pos) = list.iter().position(is) else {
        return false;
    };
    list.swap_remove(pos);
    true
}

fn remove_triple<T: PartialEq>(
    list: &mut Vec<(Value, T, bool)>,
    constant: &Value,
    id: T,
    negated: bool,
) -> bool {
    swap_remove_first(list, |(c, p, n)| c == constant && *p == id && *n == negated)
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
        // side. Removed in every order, the survivors keep matching
        // until the last one leaves, and the drained columns hold no heap.
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
                let drained = |c: &Column<i64, u32>| c.keys.capacity() + c.ids.capacity() == 0;
                assert!(idx.buckets[0].ordinal.iter().all(drained), "{order:?}");
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

    /// Entries waiting in the unsorted tails of `idx`'s first bucket.
    fn tail_len(idx: &PredicateIndex<u32>) -> usize {
        let b = &idx.buckets[0];
        let ordinal = b.ordinal.iter().map(|c| c.keys.len() - c.sorted);
        ordinal
            .chain(b.text.iter().map(|c| c.keys.len() - c.sorted))
            .sum()
    }

    #[test]
    fn columns_follow_the_live_set_under_random_inserts_and_removes() {
        // Every range operator on constants of every kind, the order's
        // edges among them, on one attribute. The pool is small, so one
        // constant is often held under several operators and ids.
        let constants: [Value; 20] = [
            false.into(),
            true.into(),
            i64::MIN.into(),
            (-1_i64).into(),
            0_i64.into(),
            7_i64.into(),
            i64::MAX.into(),
            (-f64::NAN).into(),
            f64::NEG_INFINITY.into(),
            (-0.0_f64).into(),
            0.0_f64.into(),
            2.5_f64.into(),
            f64::INFINITY.into(),
            f64::NAN.into(),
            "".into(),
            "a".into(),
            "ab".into(),
            "abc".into(),
            "abd".into(),
            "b".into(),
        ];
        let ops = [CompareOp::Lt, CompareOp::Le, CompareOp::Gt, CompareOp::Ge];
        let probes: Vec<Event> = constants
            .iter()
            .cloned()
            .chain([3_i64.into(), 1.0_f64.into(), "aa".into(), "c".into()])
            .map(|v| Event::builder().attr("v", v).build())
            .collect();
        let mut state = 2005_u64;
        let mut below = |n: usize| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % n as u64) as usize
        };
        let mut idx: PredicateIndex<u32> = PredicateIndex::new();
        let mut live: Vec<(u32, Predicate)> = Vec::new();
        // The model: per id, its verdict on every probe (from
        // `eval_event`); per probe, how many live ids it fulfils.
        let mut verdicts: Vec<Vec<bool>> = Vec::new();
        let mut fulfilled = vec![0usize; probes.len()];
        let mut alive = Vec::new();
        let (mut seen, mut stamp) = (Vec::new(), 0);
        let (mut from_tail, mut from_sorted, mut peak_sorted) = (0, 0, 0);
        // Mostly inserts for 1 600 steps, enough for several merges in
        // most columns, then mostly removes, then a drain of the rest.
        let mut step = 0;
        while step < 3_200 || !live.is_empty() {
            let odds = if step < 1_600 { 7 } else { 2 };
            if step < 3_200 && (live.is_empty() || below(8) < odds) {
                let op = ops[below(ops.len())];
                let p = Predicate::new("v", op, constants[below(constants.len())].clone());
                let id = verdicts.len() as u32;
                verdicts.push(probes.iter().map(|e| p.eval_event(e)).collect());
                for (count, &hit) in fulfilled.iter_mut().zip(&verdicts[id as usize]) {
                    *count += usize::from(hit);
                }
                idx.insert(id, &p);
                live.push((id, p));
                alive.push(true);
                seen.push(0);
            } else {
                let (id, p) = live.swap_remove(below(live.len()));
                let tail = tail_len(&idx);
                assert!(idx.remove(id, &p), "step {step}: {p}");
                assert!(!idx.remove(id, &p), "step {step}: {p} twice");
                if tail_len(&idx) < tail {
                    from_tail += 1;
                } else {
                    from_sorted += 1;
                }
                alive[id as usize] = false;
                for (count, &hit) in fulfilled.iter_mut().zip(&verdicts[id as usize]) {
                    *count -= usize::from(hit);
                }
            }
            let b = &idx.buckets[0];
            let runs = b.ordinal.iter().map(|c| c.sorted);
            peak_sorted = runs
                .chain(b.text.iter().map(|c| c.sorted))
                .fold(peak_sorted, usize::max);
            for (k, e) in probes.iter().enumerate() {
                stamp += 1;
                let got = idx.matching(e);
                for id in got.iter().map(|&id| id as usize) {
                    assert!(alive[id] && verdicts[id][k], "step {step}: {id} on {e}");
                    assert_ne!(seen[id], stamp, "step {step}: {id} twice on {e}");
                    seen[id] = stamp;
                }
                assert_eq!(got.len(), fulfilled[k], "step {step}, event {e}");
            }
            step += 1;
        }
        assert!(live.is_empty() && idx.predicate_count() == 0);
        assert!(
            from_tail > 0 && from_sorted > 0,
            "{from_tail} / {from_sorted}"
        );
        assert!(peak_sorted >= 3 * MERGE_AT, "peak sorted run {peak_sorted}");
        let b = &idx.buckets[0];
        assert_eq!(
            b.ordinal.len() + b.text.len(),
            16,
            "one column per operator and kind"
        );
        assert!(b
            .ordinal
            .iter()
            .all(|c| c.keys.capacity() + c.ids.capacity() == 0));
        assert!(b
            .text
            .iter()
            .all(|c| c.keys.capacity() + c.ids.capacity() == 0));
    }

    #[test]
    fn heap_bytes_nonzero_once_populated() {
        let mut idx: PredicateIndex<u32> = PredicateIndex::new();
        idx.insert(0, &Predicate::new("a", CompareOp::Gt, 1_i64));
        assert!(idx.heap_bytes() > 0);
    }
}
