//! Per-shard attribute synopses: compact summaries of a shard's
//! resident subscriptions that let publish skip shards with zero
//! candidates.
//!
//! Load-aware placement (PRs 4/5) balances the *cost* of matching but
//! never reduces it: every publish still fans out to all `S` shards.
//! The synopsis turns that `O(S)` walk into `O(shards that could
//! match)`: each shard maintains, next to its [`ShardTranslation`], a
//! per-attribute summary of the **required conjuncts** of its
//! residents, and the publish pipelines consult it under the shard
//! read lock they already hold before doing any matching work.
//!
//! # Conservativeness contract
//!
//! A synopsis may admit a shard that turns out to match nothing, but it
//! must **never** exclude a shard holding a matching subscription. The
//! contract rests on two facts:
//!
//! 1. For each resident, the synopsis indexes at most one **required
//!    conjunct** — a predicate that must be satisfied for the whole
//!    expression to be true (the top-level predicate, or any predicate
//!    reachable through top-level conjunctions only). Disjunctions and
//!    negations contribute no required predicate and degrade to
//!    *always candidate*.
//! 2. Under the open-world predicate semantics, *every* comparison
//!    operator requires the attribute to be present with a satisfying
//!    value, and the per-operator admission tests below are supersets
//!    of satisfaction: equality admits on an exact value hit, ordered
//!    comparisons admit any event value inside the [min, max] hull of
//!    the registered bounds, and everything else (≠, string search)
//!    admits on attribute presence alone.
//!
//! All summaries are **counting** structures, so they support removal
//! exactly — no rebuilds on unsubscribe, migration, or shard drain.
//! What was indexed for a resident is remembered per local slot, which
//! makes removal possible from every teardown path (including a
//! migration completing a racing unsubscribe, where the subscription's
//! expression is no longer reachable through the directory).
//!
//! [`ShardTranslation`]: crate::ShardTranslation

use std::collections::{BTreeMap, HashMap};
use std::mem;
use std::sync::Arc;

use boolmatch_expr::{CompareOp, Expr, Predicate, MAX_DEPTH};
use boolmatch_types::{Event, Value};

use crate::memory::reserve_tight;
use crate::SubscriptionId;

/// Returns the required conjunct the synopsis indexes for `expr`:
/// the first equality predicate reachable through top-level
/// conjunctions, else the first such predicate of any operator, else
/// `None` (the subscription is an always-candidate).
///
/// Equality predicates are preferred because they are the most
/// selective summary entries — and the same preference defines the
/// *dominant equality predicate* that clustering placement hashes on,
/// so co-placement and pruning agree on what "similar" means.
fn required_pred(expr: &Expr) -> Option<&Predicate> {
    fn walk<'e>(
        expr: &'e Expr,
        depth: usize,
        first: &mut Option<&'e Predicate>,
        first_eq: &mut Option<&'e Predicate>,
    ) {
        match expr {
            Expr::Pred(p) => {
                if first.is_none() {
                    *first = Some(p);
                }
                if first_eq.is_none() && p.op() == CompareOp::Eq {
                    *first_eq = Some(p);
                }
            }
            // Every child of a conjunction must hold, so any predicate
            // found below (through nested conjunctions) is required.
            // Placement walks a tree before any engine has checked its
            // depth; a tree deeper than `MAX_DEPTH`, which every engine
            // refuses, is not walked past it.
            Expr::And(children) if depth < MAX_DEPTH => {
                for child in children {
                    if first_eq.is_some() {
                        return;
                    }
                    walk(child, depth + 1, first, first_eq);
                }
            }
            // Or/Not children are not individually required.
            _ => {}
        }
    }
    let (mut first, mut first_eq) = (None, None);
    walk(expr, 1, &mut first, &mut first_eq);
    first_eq.or(first)
}

/// The attribute of `expr`'s dominant equality predicate — the
/// attribute [`PlacementPolicy::ClusterByAttribute`] clusters on —
/// if the expression has a required equality conjunct.
///
/// [`PlacementPolicy::ClusterByAttribute`]: crate::PlacementPolicy::ClusterByAttribute
pub fn dominant_eq_attr(expr: &Expr) -> Option<&str> {
    required_pred(expr)
        .filter(|p| p.op() == CompareOp::Eq)
        .map(Predicate::attr)
}

/// Deterministic 64-bit FNV-1a over an attribute name.
///
/// Clustering placement maps this hash onto a preferred shard; a fixed
/// hash (rather than `std`'s keyed hasher) keeps placement reproducible
/// across runs, which the deterministic tests and `benchmark/` rely
/// on.
pub fn attribute_hash(attr: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in attr.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// What the synopsis indexed for one resident: the admission test
/// derived from its required conjunct.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Constraint {
    /// No required conjunct (top-level disjunction/negation): the
    /// resident is a candidate for every event.
    Always,
    /// Required `attr = value`: admitted on an exact value hit.
    Eq(Arc<str>, Value),
    /// Required `attr > value` / `attr >= value`: admitted when the
    /// event value reaches the smallest registered lower bound.
    Lower(Arc<str>, Value),
    /// Required `attr < value` / `attr <= value`: admitted when the
    /// event value is within the largest registered upper bound.
    Upper(Arc<str>, Value),
    /// Required `attr != value` or string search: admitted whenever the
    /// attribute is present at all.
    Presence(Arc<str>),
}

impl Constraint {
    /// The constraint indexed for `expr`, naming its attribute by the
    /// `Arc` that `attr` returns for the name.
    fn for_expr(expr: &Expr, attr: impl FnOnce(&str) -> Arc<str>) -> Constraint {
        match required_pred(expr) {
            None => Constraint::Always,
            Some(p) => {
                let attr = attr(p.attr());
                match p.op() {
                    CompareOp::Eq => Constraint::Eq(attr, p.value().clone()),
                    CompareOp::Gt | CompareOp::Ge => Constraint::Lower(attr, p.value().clone()),
                    CompareOp::Lt | CompareOp::Le => Constraint::Upper(attr, p.value().clone()),
                    _ => Constraint::Presence(attr),
                }
            }
        }
    }

    /// Heap bytes of the constraint's value; its attribute name is
    /// the summary map's key, charged there once.
    fn heap_bytes(&self) -> usize {
        match self {
            Constraint::Always | Constraint::Presence(_) => 0,
            Constraint::Eq(_, v) | Constraint::Lower(_, v) | Constraint::Upper(_, v) => {
                v.heap_bytes()
            }
        }
    }
}

/// Counting summary of every indexed constraint on one attribute.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct AttrSummary {
    /// Residents requiring `attr = value`, keyed by value.
    eq: HashMap<Value, u32>,
    /// Multiset of `>`/`>=` bounds; admission tests against the min.
    lower: BTreeMap<Value, u32>,
    /// Multiset of `<`/`<=` bounds; admission tests against the max.
    upper: BTreeMap<Value, u32>,
    /// Residents requiring only that the attribute is present.
    presence: u32,
}

impl AttrSummary {
    fn is_empty(&self) -> bool {
        self.presence == 0 && self.eq.is_empty() && self.lower.is_empty() && self.upper.is_empty()
    }

    // Cross-kind note: `Value`'s total order sorts by kind first, and
    // `CompareOp::eval` never satisfies an ordered comparison across
    // kinds — so an event value of kind K satisfies a bound only if the
    // bound also has kind K, in which case it lies between the
    // multiset's global min and max. Testing the hull across kinds can
    // only over-admit, which conservativeness allows.
    fn admits(&self, value: &Value) -> bool {
        if self.presence > 0 || self.eq.contains_key(value) {
            return true;
        }
        if let Some((min, _)) = self.lower.first_key_value() {
            if value >= min {
                return true;
            }
        }
        if let Some((max, _)) = self.upper.last_key_value() {
            if value <= max {
                return true;
            }
        }
        false
    }

    fn heap_bytes(&self) -> usize {
        let entries = self.eq.capacity() + self.lower.len() + self.upper.len();
        let values: usize = self
            .eq
            .keys()
            .chain(self.lower.keys())
            .chain(self.upper.keys())
            .map(Value::heap_bytes)
            .sum();
        entries * mem::size_of::<(Value, u32)>() + values
    }
}

/// A compact, conservative summary of one shard's resident
/// subscriptions, consulted on publish to skip shards with zero
/// candidates.
///
/// Maintained wherever the shard's [`ShardTranslation`] is maintained
/// (subscribe, unsubscribe, migration, resize) under the per-shard
/// write lock, and read on the publish path under the per-shard read
/// lock — it adds no locking of its own. It is conservative: it may
/// admit an event no resident matches, but never skips a shard holding
/// a candidate.
///
/// # Examples
///
/// ```
/// use boolmatch_core::{ShardSynopsis, SubscriptionId};
/// use boolmatch_expr::Expr;
/// use boolmatch_types::Event;
///
/// let mut synopsis = ShardSynopsis::new();
/// synopsis.insert(SubscriptionId::from_index(0), &Expr::parse("sym = \"IBM\" and px > 10")?);
///
/// let ibm = Event::builder().attr("sym", "IBM").attr("px", 12_i64).build();
/// let other = Event::builder().attr("sym", "HPQ").attr("px", 12_i64).build();
/// assert!(synopsis.admits(&ibm));
/// assert!(!synopsis.admits(&other), "no resident requires sym = HPQ");
///
/// synopsis.remove(SubscriptionId::from_index(0));
/// assert!(!synopsis.admits(&ibm), "empty shards admit nothing");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// [`ShardTranslation`]: crate::ShardTranslation
#[derive(Debug, Clone, Default)]
pub struct ShardSynopsis {
    /// Per-attribute summaries over the indexed required conjuncts.
    attrs: HashMap<Arc<str>, AttrSummary>,
    /// Residents with no required conjunct: candidates for everything.
    always_candidates: usize,
    /// What was indexed per local slot, so removal never needs the
    /// subscription's expression (which teardown paths completing a
    /// racing unsubscribe no longer have).
    slots: Vec<Option<Constraint>>,
    /// Residents currently indexed.
    live: usize,
}

impl ShardSynopsis {
    /// Creates an empty synopsis.
    pub fn new() -> Self {
        ShardSynopsis::default()
    }

    /// Indexes the resident registered under `local`. Called under the
    /// shard write lock, wherever the translation map gains the slot.
    pub fn insert(&mut self, local: SubscriptionId, expr: &Expr) {
        // Every resident on one attribute shares the summary's key.
        let constraint = Constraint::for_expr(expr, |name| match self.attrs.get_key_value(name) {
            Some((key, _)) => Arc::clone(key),
            None => Arc::from(name),
        });
        self.add(&constraint);
        let slot = local.index();
        if self.slots.len() <= slot {
            let missing = slot + 1 - self.slots.len();
            reserve_tight(&mut self.slots, missing);
            self.slots.resize(slot + 1, None);
        }
        debug_assert!(
            self.slots[slot].is_none(),
            "synopsis slot {slot} indexed twice"
        );
        self.slots[slot] = Some(constraint);
        self.live += 1;
    }

    /// Un-indexes the resident at `local`. A no-op when the slot is not
    /// indexed, mirroring `ShardTranslation::clear_if` tolerance on the
    /// racing teardown paths.
    pub fn remove(&mut self, local: SubscriptionId) {
        let Some(constraint) = self.slots.get_mut(local.index()).and_then(Option::take) else {
            return;
        };
        self.sub(&constraint);
        self.live -= 1;
    }

    // lint: hot-path — `admits` runs once per (event, shard) on every
    // publish, under the shard read lock, before any matching work.

    /// Whether the shard could hold a subscription matching `event`.
    ///
    /// `false` means *provably* zero candidates (the publish pipelines
    /// skip the shard entirely); `true` means the shard must be
    /// matched. Empty shards admit nothing.
    pub fn admits(&self, event: &Event) -> bool {
        if self.always_candidates > 0 {
            return true;
        }
        if self.live == 0 || self.attrs.is_empty() {
            return false;
        }
        event.iter().any(|(name, value)| {
            self.attrs
                .get(name)
                .is_some_and(|summary| summary.admits(value))
        })
    }

    // lint: end-hot-path

    /// Residents currently indexed.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Residents indexed as always-candidates (no required conjunct).
    pub fn always_candidates(&self) -> usize {
        self.always_candidates
    }

    /// Whether the constraint this synopsis would index for `expr` is
    /// currently present — the per-resident conservativeness invariant
    /// the property tests check after churn and migration: every
    /// resident's indexed constraint must survive in its shard's
    /// synopsis.
    pub fn covers(&self, expr: &Expr) -> bool {
        match Constraint::for_expr(expr, |name| Arc::from(name)) {
            Constraint::Always => self.always_candidates > 0,
            Constraint::Eq(attr, value) => self
                .attrs
                .get(&attr)
                .is_some_and(|s| s.eq.get(&value).copied().unwrap_or(0) > 0),
            Constraint::Lower(attr, value) => self
                .attrs
                .get(&attr)
                .is_some_and(|s| s.lower.get(&value).copied().unwrap_or(0) > 0),
            Constraint::Upper(attr, value) => self
                .attrs
                .get(&attr)
                .is_some_and(|s| s.upper.get(&value).copied().unwrap_or(0) > 0),
            Constraint::Presence(attr) => self.attrs.get(&attr).is_some_and(|s| s.presence > 0),
        }
    }

    /// Whether `other` summarises the same resident population:
    /// identical attribute summaries and always-candidate count. Slot
    /// numbering is ignored, so a synopsis rebuilt from scratch can be
    /// compared against one maintained incrementally through churn.
    pub fn agrees_with(&self, other: &ShardSynopsis) -> bool {
        self.live == other.live
            && self.always_candidates == other.always_candidates
            && self.attrs == other.attrs
    }

    /// Approximate heap bytes owned by the synopsis — charged to
    /// `memory_usage` as routing support, like the translation maps.
    pub fn heap_bytes(&self) -> usize {
        let mut bytes = self.slots.capacity() * mem::size_of::<Option<Constraint>>()
            + self.attrs.capacity() * mem::size_of::<(Arc<str>, AttrSummary)>();
        for (name, summary) in &self.attrs {
            // The name's one allocation: the `Arc` counts, then the text.
            bytes += 2 * mem::size_of::<usize>() + name.len() + summary.heap_bytes();
        }
        for constraint in self.slots.iter().flatten() {
            bytes += constraint.heap_bytes();
        }
        bytes
    }

    fn add(&mut self, constraint: &Constraint) {
        match constraint {
            Constraint::Always => self.always_candidates += 1,
            Constraint::Eq(attr, value) => {
                *self
                    .attrs
                    .entry(Arc::clone(attr))
                    .or_default()
                    .eq
                    .entry(value.clone())
                    .or_insert(0) += 1;
            }
            Constraint::Lower(attr, value) => {
                *self
                    .attrs
                    .entry(Arc::clone(attr))
                    .or_default()
                    .lower
                    .entry(value.clone())
                    .or_insert(0) += 1;
            }
            Constraint::Upper(attr, value) => {
                *self
                    .attrs
                    .entry(Arc::clone(attr))
                    .or_default()
                    .upper
                    .entry(value.clone())
                    .or_insert(0) += 1;
            }
            Constraint::Presence(attr) => {
                self.attrs.entry(Arc::clone(attr)).or_default().presence += 1;
            }
        }
    }

    fn sub(&mut self, constraint: &Constraint) {
        fn drop_count(map_count: Option<&mut u32>) -> bool {
            let count = map_count.expect("removed constraint was indexed");
            *count -= 1;
            *count == 0
        }
        let attr = match constraint {
            Constraint::Always => {
                self.always_candidates -= 1;
                return;
            }
            Constraint::Eq(attr, _)
            | Constraint::Lower(attr, _)
            | Constraint::Upper(attr, _)
            | Constraint::Presence(attr) => attr,
        };
        let summary = self
            .attrs
            .get_mut(attr)
            .expect("removed constraint's attribute is summarised");
        // Entries are removed at count zero so the lower/upper hulls
        // stay tight and value churn cannot grow the maps unboundedly.
        match constraint {
            Constraint::Always => unreachable!("handled above"),
            Constraint::Eq(_, value) => {
                if drop_count(summary.eq.get_mut(value)) {
                    summary.eq.remove(value);
                }
            }
            Constraint::Lower(_, value) => {
                if drop_count(summary.lower.get_mut(value)) {
                    summary.lower.remove(value);
                }
            }
            Constraint::Upper(_, value) => {
                if drop_count(summary.upper.get_mut(value)) {
                    summary.upper.remove(value);
                }
            }
            Constraint::Presence(_) => summary.presence -= 1,
        }
        if summary.is_empty() {
            self.attrs.remove(attr);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(i: usize) -> SubscriptionId {
        SubscriptionId::from_index(i)
    }

    fn expr(text: &str) -> Expr {
        Expr::parse(text).expect("test expression parses")
    }

    fn event(pairs: &[(&str, i64)]) -> Event {
        Event::from_pairs(pairs.iter().map(|&(n, v)| (n, v)))
    }

    #[test]
    fn equality_conjunct_prunes_other_values() {
        let mut s = ShardSynopsis::new();
        s.insert(id(0), &expr("group = 3 and tick >= 5"));
        assert!(s.admits(&event(&[("group", 3), ("tick", 9)])));
        assert!(
            !s.admits(&event(&[("group", 4), ("tick", 9)])),
            "only the required equality is indexed, so group = 4 cannot match here"
        );
        assert!(
            !s.admits(&event(&[("tick", 9)])),
            "the required attribute is absent: open-world semantics make a match impossible"
        );
    }

    #[test]
    fn range_bounds_admit_the_hull_only() {
        let mut s = ShardSynopsis::new();
        s.insert(id(0), &expr("price > 10"));
        s.insert(id(1), &expr("price >= 100"));
        s.insert(id(2), &expr("qty < 5"));
        assert!(s.admits(&event(&[("price", 11)])));
        assert!(
            s.admits(&event(&[("price", 10)])),
            "Gt folded to >= min bound"
        );
        assert!(!s.admits(&event(&[("price", 9)])));
        assert!(s.admits(&event(&[("qty", 5)])), "Lt folded to <= max bound");
        assert!(!s.admits(&event(&[("qty", 6)])));
        // Removing the loosest bound tightens the hull.
        s.remove(id(0));
        assert!(!s.admits(&event(&[("price", 50)])));
        assert!(s.admits(&event(&[("price", 100)])));
    }

    #[test]
    fn disjunctions_and_negations_are_always_candidates() {
        let mut s = ShardSynopsis::new();
        s.insert(id(0), &expr("a = 1 or b = 2"));
        assert!(
            s.admits(&event(&[("zzz", 0)])),
            "or-rooted: always admitted"
        );
        assert_eq!(s.always_candidates(), 1);
        s.insert(id(1), &expr("not a = 1"));
        s.remove(id(0));
        assert!(
            s.admits(&event(&[("zzz", 0)])),
            "not-rooted: always admitted"
        );
        s.remove(id(1));
        assert!(
            !s.admits(&event(&[("zzz", 0)])),
            "empty shard admits nothing"
        );
        assert_eq!(s.live(), 0);
    }

    #[test]
    fn required_conjunct_is_found_through_nested_ands() {
        // `(a > 1 and b = 2) and c = 3` — b = 2 is the first required
        // equality, and `not`/`or` children contribute nothing.
        let e = expr("a > 1 and b = 2 and c = 3 and (x = 1 or y = 2)");
        assert_eq!(dominant_eq_attr(&e), Some("b"));
        let mut s = ShardSynopsis::new();
        s.insert(id(0), &e);
        assert!(s.admits(&event(&[("b", 2)])));
        assert!(!s.admits(&event(&[("b", 3), ("x", 1)])));
        assert_eq!(dominant_eq_attr(&expr("a > 1 and b < 2")), None);
        assert_eq!(dominant_eq_attr(&expr("a = 1 or b = 2")), None);
    }

    #[test]
    fn ne_and_string_search_degrade_to_presence() {
        let mut s = ShardSynopsis::new();
        s.insert(id(0), &expr("a != 5"));
        assert!(
            s.admits(&event(&[("a", 5)])),
            "presence-only: a != 5 is not checkable from the summary"
        );
        assert!(!s.admits(&event(&[("b", 5)])));
        let mut t = ShardSynopsis::new();
        t.insert(id(0), &Expr::parse("name prefix \"bo\"").unwrap());
        assert!(t.admits(&Event::builder().attr("name", "x").build()));
        assert!(!t.admits(&Event::builder().attr("other", "bo").build()));
    }

    #[test]
    fn admission_is_conservative_under_eval() {
        // Any event the expression matches must be admitted.
        let exprs = [
            "a = 1",
            "a = 1 and b > 2",
            "a > 1 and b < 2",
            "a != 1 and b = 2",
            "a = 1 or b = 2",
            "not (a = 1)",
            "a >= 3 and (b = 1 or c = 2)",
        ];
        let mut s = ShardSynopsis::new();
        for (i, text) in exprs.iter().enumerate() {
            s.insert(id(i), &expr(text));
        }
        for a in -1..4_i64 {
            for b in -1..4_i64 {
                let e = event(&[("a", a), ("b", b), ("c", 2)]);
                let matches = exprs.iter().any(|t| expr(t).eval_event(&e));
                assert!(
                    !matches || s.admits(&e),
                    "conservativeness violated for a={a} b={b}"
                );
            }
        }
    }

    #[test]
    fn covers_tracks_residents_exactly() {
        let mut s = ShardSynopsis::new();
        let e1 = expr("a = 1 and b > 2");
        let e2 = expr("a = 1 or b = 2");
        s.insert(id(0), &e1);
        s.insert(id(1), &e2);
        assert!(s.covers(&e1));
        assert!(s.covers(&e2));
        s.remove(id(0));
        assert!(!s.covers(&e1));
        assert!(s.covers(&e2));
    }

    #[test]
    fn rebuild_agrees_with_incremental_maintenance() {
        let exprs: Vec<Expr> = (0..20)
            .map(|i| expr(&format!("g{} = {} and tick >= {}", i % 3, i % 5, i)))
            .collect();
        let mut churned = ShardSynopsis::new();
        for (i, e) in exprs.iter().enumerate() {
            churned.insert(id(i), e);
        }
        for i in (0..20).step_by(2) {
            churned.remove(id(i));
        }
        let mut rebuilt = ShardSynopsis::new();
        for (i, e) in exprs.iter().enumerate().skip(1).step_by(2) {
            rebuilt.insert(id(100 + i), e); // different slots on purpose
        }
        assert!(churned.agrees_with(&rebuilt));
        assert!(!churned.agrees_with(&ShardSynopsis::new()));
    }

    #[test]
    fn removal_is_idempotent_for_racing_teardown() {
        let mut s = ShardSynopsis::new();
        s.insert(id(3), &expr("a = 1"));
        s.remove(id(3));
        s.remove(id(3)); // the raced path loses and must be a no-op
        s.remove(id(99)); // never-indexed slot
        assert_eq!(s.live(), 0);
    }

    #[test]
    fn heap_bytes_grow_and_shrink_with_contents() {
        let mut s = ShardSynopsis::new();
        let empty = s.heap_bytes();
        for i in 0..50 {
            s.insert(id(i), &expr(&format!("attr{i} = {i}")));
        }
        assert!(s.heap_bytes() > empty, "contents are charged");
        for i in 0..50 {
            s.remove(id(i));
        }
        assert!(s.attrs.is_empty(), "summaries drain with their residents");
    }

    #[test]
    fn residents_share_their_attribute_name_with_the_summary() {
        let long = "an_attribute_with_a_long_name";
        let (mut short_names, mut long_names) = (ShardSynopsis::new(), ShardSynopsis::new());
        for i in 0..100 {
            short_names.insert(id(i), &expr(&format!("a = {i}")));
            long_names.insert(id(i), &expr(&format!("{long} = {i}")));
        }
        let (key, _) = long_names.attrs.get_key_value(long).unwrap();
        assert_eq!(Arc::strong_count(key), 101, "the key and 100 residents");
        assert_eq!(
            long_names.heap_bytes() - short_names.heap_bytes(),
            long.len() - 1,
            "the name is charged once"
        );
    }

    #[test]
    fn attribute_hash_is_fixed() {
        // FNV-1a reference values: placement must not drift across runs
        // or toolchains.
        assert_eq!(attribute_hash(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(attribute_hash("a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(attribute_hash("group"), attribute_hash("tick"));
    }
}
