//! The non-canonical filtering engine — the paper's contribution (§3).

use boolmatch_expr::{transform, CompareOp, Expr, Predicate};
use boolmatch_index::PredicateIndex;
use boolmatch_types::Event;

use crate::arena::{Loc, TreeArena, MAX_TREE_BYTES};
use crate::assoc::AssocTable;
use crate::encode::{self, IdExpr};
use crate::engine::{EngineKind, FilterEngine, SubscribeError, UnsubscribeError};
use crate::eval::eval_iterative_with;
use crate::memory::reserve_tight;
use crate::scratch::EventView;
use crate::{
    FulfilledSet, MatchScratch, MatchStats, MemoryUsage, PredicateId, PredicateInterner,
    SubscriptionId,
};

/// The paper's matching engine: subscriptions are stored **as Boolean
/// trees of linear size** — no canonical transformation — and matched
/// in two phases over four data structures (paper Fig. 2):
/// one-dimensional predicate indexes, the predicate→subscription
/// association table, the subscription location table, and the
/// byte-encoded subscription trees themselves.
///
/// # What is stored — the negation normal form
///
/// A subscription is stored as its negation normal form
/// ([`transform::eliminate_not`]): a negation is pushed into the leaves,
/// where `not (a = 1)` becomes the predicate `a != 1`. That is the
/// meaning [`Expr::eval_event`] gives `not` for every engine — a leaf
/// whose attribute is missing is false, negated or not — and it is a
/// departure of representation from §3, not of structure: the tree
/// keeps its size and shape, with no DNF expansion, and its inner nodes
/// are only `AND` and `OR`.
///
/// # Which postings exist — a stated departure from §3.2
///
/// The paper associates a subscription with **every** predicate of its
/// tree, so phase 2 evaluates each subscription with *any* fulfilled
/// predicate. This engine keeps the two phases, the four structures and
/// the original trees, but associates a subscription only with a
/// **necessary predicate set** — leaves of which at least one is
/// fulfilled whenever the tree is true (`necessary_set`: a leaf is
/// its own set, an `OR` unions its children's sets, an `AND` takes its
/// cheapest child's set — fewest predicates, then fewest non-equality
/// ones, then lowest estimated traffic, recorded as the first child).
/// Every stored tree has one, since it has no `NOT`, and every operator
/// is indexable. A subscription becomes a candidate only when
/// a predicate it *needs* is fulfilled; the matched set is unchanged,
/// the candidate set shrinks. On 20 000 paper-shape
/// subscriptions (AND of 4 OR-pairs, the benchmark's
/// `fig3-noncanonical` at seed 2005) that is 870 candidate trees per
/// event where the all-predicates association evaluated 5 435 (and
/// 1 524 while equal-size pairs went to the first one), and two
/// postings per subscription where it stored eight; on 20 000 ticker
/// subscriptions (`symbol = S and …`) one posting each and 1 661
/// candidates where it evaluated 18 905.
///
/// # What phase 1 indexes — access predicates only
///
/// Only a predicate with postings (an *access* predicate) can make a
/// subscription a candidate, so only those are in the phase-1
/// [`PredicateIndex`]: a predicate enters it with its first posting and
/// leaves it with its last. Every leaf is still interned and every tree
/// still stores predicate ids. [`FilterEngine::phase1`] puts the
/// fulfilled access predicates into the [`FulfilledSet`] and the event
/// beside them; when a candidate's tree reaches a leaf that is not
/// indexed, phase 2 compares the event's value with the predicate's
/// constant on the spot ([`MatchStats::leaf_comparisons`]), without a
/// per-event memo — such a leaf is rarely shared between candidates,
/// and the memo probe would cost what the comparison does. On the
/// paper-shape corpus above that is 39 718 index entries instead of
/// 157 342 and 866 fulfilled ids per event instead of 5 978; on the
/// ticker corpus (`symbol = S` is the access predicate) 12 entries
/// instead of 33 448 and 1 fulfilled id instead of 15 992. A fulfilled set that carries no event
/// ([`FulfilledSet::from_ids`]) is taken as complete: every leaf is
/// decided by membership, as the Fig. 3 harness expects.
///
/// # Examples
///
/// ```
/// use boolmatch_core::{FilterEngine, Matcher, NonCanonicalEngine};
/// use boolmatch_expr::Expr;
/// use boolmatch_types::Event;
///
/// let mut engine = Matcher::new(NonCanonicalEngine::new());
/// // Arbitrary Boolean structure, registered without DNF expansion:
/// let id = engine.subscribe(&Expr::parse(
///     "(a > 10 or a <= 5 or b = 1) and (c <= 20 or c = 30 or d = 5)",
/// )?)?;
/// let hit = Event::builder().attr("a", 12_i64).attr("c", 30_i64).build();
/// assert_eq!(engine.match_event(&hit).matched, vec![id]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct NonCanonicalEngine {
    /// Every leaf's predicate, as a record naming its attribute by its
    /// slot in `index`.
    interner: PredicateInterner,
    /// Phase-1 index over the predicates with a non-empty `assoc` list;
    /// also the engine's attribute-name → slot table (every interned
    /// predicate's attribute has a slot, indexed or not).
    index: PredicateIndex<PredicateId>,
    /// Per predicate id, one bit: set while the predicate is in `index`.
    indexed: IdBits,
    /// Per attribute slot: the span of its interned numeric constants.
    spans: Vec<Span>,
    /// Predicate → subscriptions having it in their necessary set
    /// (dense u32 sub indexes).
    assoc: AssocTable<u32>,
    /// Subscription location table: dense sub index → tree location.
    /// The [`Loc::empty`] sentinel marks a free slot; a plain `Loc` per
    /// slot is 8 bytes where `Option<Loc>` would be 12 — this table
    /// exists per live subscription.
    locations: Vec<Loc>,
    /// Free slots of `locations`, most recently freed last: subscribe
    /// reissues from the end before it appends, so the per-subscription
    /// tables follow the live set, not every subscription ever made.
    free_subs: Vec<u32>,
    arena: TreeArena,
    live_subs: usize,
}

/// A set of predicate ids, one bit each.
#[derive(Debug, Default)]
struct IdBits(Vec<u64>);

impl IdBits {
    /// Grows the set so it can hold `id`; ids it grows by are absent.
    fn cover(&mut self, id: PredicateId) {
        let words = id.index() / 64 + 1;
        if self.0.len() < words {
            self.0.resize(words, 0);
        }
    }

    fn set(&mut self, id: PredicateId, on: bool) {
        let bit = 1 << (id.index() % 64);
        let word = &mut self.0[id.index() / 64];
        if on {
            *word |= bit;
        } else {
            *word &= !bit;
        }
    }

    // lint: hot-path — read once per leaf a candidate's evaluation
    // reaches.

    #[inline]
    fn contains(&self, id: PredicateId) -> bool {
        self.0
            .get(id.index() / 64)
            .is_some_and(|word| word >> (id.index() % 64) & 1 != 0)
    }

    // lint: end-hot-path

    fn heap_bytes(&self) -> usize {
        self.0.capacity() * std::mem::size_of::<u64>()
    }
}

// lint: hot-path — the leaf test runs once per tree leaf a candidate's
// evaluation reaches: dense reads and one comparison, no name lookup.

/// Decides the leaves of candidate trees for one event.
struct LeafTest<'a> {
    fulfilled: &'a FulfilledSet,
    /// The event unindexed predicates are compared against, with its
    /// values by attribute slot; `None` when `fulfilled` carries no
    /// event and is complete as it stands.
    event: Option<(&'a Event, &'a EventView)>,
    indexed: &'a IdBits,
    interner: &'a PredicateInterner,
    /// Leaves decided by comparison rather than by stamp.
    comparisons: usize,
}

impl LeafTest<'_> {
    #[inline]
    fn holds(&mut self, pid: PredicateId) -> bool {
        let Some((event, view)) = self.event else {
            return self.fulfilled.contains(pid);
        };
        if self.indexed.contains(pid) {
            return self.fulfilled.contains(pid);
        }
        self.comparisons += 1;
        let slot = self.interner.record(pid).slot().index();
        view.value(slot, event)
            .is_some_and(|value| self.interner.eval(pid, value))
    }
}

// lint: end-hot-path

/// Expected candidate traffic of a necessary set.
#[derive(Clone, Copy)]
struct SetCost {
    /// The key, compared lexicographically: fewer predicates first,
    /// then fewer non-equality ones (a range, `!=` or string predicate
    /// holds for far more events than an equality does). It bounds the
    /// postings and index entries a set costs.
    key: (usize, usize),
    /// Estimated share of events fulfilling the set — the sum over its
    /// leaves, `None` when a leaf has no estimate. Only compared
    /// between sets with equal keys.
    traffic: Option<f64>,
}

impl SetCost {
    /// Whether a set costing `self` replaces the cheapest so far: a
    /// smaller key, or an equal key and lower traffic where both sets
    /// have an estimate.
    fn beats(&self, best: &SetCost) -> bool {
        self.key < best.key
            || (self.key == best.key
                && matches!((self.traffic, best.traffic), (Some(t), Some(b)) if t < b))
    }
}

/// The association rule: appends to `out` a **necessary predicate
/// set** of `tree` — leaves of which at least one is fulfilled
/// whenever the tree is true — and returns its cost. `traffic`
/// estimates the share of events fulfilling a leaf.
///
/// A leaf is its own set; an `OR` needs one of its children, so it
/// takes the union of their sets; an `AND` needs all of its children,
/// so any one child's set will do and it takes the cheapest
/// ([`SetCost::beats`]: smallest key, then lowest estimated traffic,
/// the first when neither decides) and moves that child to the front.
/// The tree has no `NOT`, so every tree has a set. Leaves are counted
/// and appended as they occur, duplicates included.
///
/// `subscribe` runs this with its estimates on the compiled tree and
/// stores the reordered tree; `unsubscribe` runs it without estimates
/// on the decoded stored tree. The two agree because every `AND` of the
/// stored tree holds its chosen child first and that child has the
/// smallest key, which is all the rule without estimates — cheapest
/// key, first on a tie — looks at; because predicate operators are
/// fixed while a predicate is live; and because re-nesting a wide node
/// into same-operator chunks ([`encode`]) changes neither a union nor
/// the first child of smallest key. Estimates may move in between:
/// nothing reads them at `unsubscribe`.
fn necessary_set(
    tree: &mut IdExpr,
    interner: &PredicateInterner,
    traffic: &impl Fn(PredicateId) -> Option<f64>,
    out: &mut Vec<PredicateId>,
) -> SetCost {
    match tree {
        IdExpr::Pred(id) => {
            out.push(*id);
            let non_equality = !interner.record(*id).op().is_point();
            SetCost {
                key: (1, usize::from(non_equality)),
                traffic: traffic(*id),
            }
        }
        IdExpr::Or(children) => {
            let mut cost = SetCost {
                key: (0, 0),
                traffic: Some(0.0),
            };
            for child in children {
                let child = necessary_set(child, interner, traffic, out);
                cost = SetCost {
                    key: (cost.key.0 + child.key.0, cost.key.1 + child.key.1),
                    traffic: cost.traffic.zip(child.traffic).map(|(a, b)| a + b),
                };
            }
            cost
        }
        IdExpr::And(children) => {
            let start = out.len();
            let mut best: Option<(usize, SetCost)> = None;
            for (i, child) in children.iter_mut().enumerate() {
                let child_start = out.len();
                let cost = necessary_set(child, interner, traffic, out);
                if best.is_none_or(|(_, b)| cost.beats(&b)) {
                    out.drain(start..child_start);
                    best = Some((i, cost));
                } else {
                    out.truncate(child_start);
                }
            }
            let (chosen, cost) = best.expect("an AND has children");
            children[..=chosen].rotate_right(1);
            cost
        }
    }
}

/// The min/max of the numeric constants interned on one attribute:
/// the column statistics of the traffic estimate. Widened when a
/// predicate is first interned, never shrunk.
#[derive(Debug, Clone, Copy)]
struct Span {
    min: f64,
    max: f64,
}

impl Span {
    const EMPTY: Span = Span {
        min: f64::INFINITY,
        max: f64::NEG_INFINITY,
    };

    fn widen(&mut self, c: f64) {
        self.min = self.min.min(c);
        self.max = self.max.max(c);
    }

    /// System R's range formula: the share of the span above `c` for
    /// `>`/`>=`, below it for `<`/`<=`. `None` for other operators and
    /// for an empty span.
    fn share(&self, op: CompareOp, c: f64) -> Option<f64> {
        let width = self.max - self.min;
        if width <= 0.0 {
            return None;
        }
        match op {
            CompareOp::Gt | CompareOp::Ge => Some((self.max - c) / width),
            CompareOp::Lt | CompareOp::Le => Some((c - self.min) / width),
            _ => None,
        }
    }
}

impl Default for NonCanonicalEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl NonCanonicalEngine {
    /// Creates an empty engine.
    pub fn new() -> Self {
        NonCanonicalEngine {
            interner: PredicateInterner::new(),
            index: PredicateIndex::new(),
            indexed: IdBits::default(),
            spans: Vec::new(),
            assoc: AssocTable::new(),
            locations: Vec::new(),
            free_subs: Vec::new(),
            arena: TreeArena::new(),
            live_subs: 0,
        }
    }

    /// Compiles a negation normal form into an [`IdExpr`], interning
    /// every leaf. Records acquisitions so a failed subscribe can roll
    /// back.
    fn compile(&mut self, expr: &Expr, acquired: &mut Vec<PredicateId>) -> IdExpr {
        match expr {
            Expr::Pred(p) => {
                let slot = self.index.intern_attr(p.attr());
                let (id, fresh) = self.interner.intern(slot, p);
                if fresh {
                    // Not indexed until a posting says so: a freed id
                    // left the index with its last posting.
                    self.indexed.cover(id);
                    if let Some(c) = self.interner.record(id).numeric() {
                        let slot = slot.index();
                        if self.spans.len() <= slot {
                            self.spans.resize(slot + 1, Span::EMPTY);
                        }
                        self.spans[slot].widen(c);
                    }
                }
                acquired.push(id);
                IdExpr::Pred(id)
            }
            Expr::And(cs) => IdExpr::And(cs.iter().map(|c| self.compile(c, acquired)).collect()),
            Expr::Or(cs) => IdExpr::Or(cs.iter().map(|c| self.compile(c, acquired)).collect()),
            Expr::Not(_) => unreachable!("eliminate_not removed all negations"),
        }
    }

    /// The distinct predicates `tree` is associated with; `traffic`
    /// breaks ties (see [`necessary_set`], which reorders `tree`).
    /// Shared by `subscribe` and `unsubscribe`, so what one posts the
    /// other removes.
    fn association_of(
        &self,
        tree: &mut IdExpr,
        traffic: impl Fn(PredicateId) -> Option<f64>,
    ) -> Vec<PredicateId> {
        let mut set = Vec::new();
        necessary_set(tree, &self.interner, &traffic, &mut set);
        // A predicate occurring twice in the set must not make the
        // subscription a candidate twice.
        set.sort_unstable();
        set.dedup();
        set
    }

    /// Estimated share of events fulfilling `pid`: [`Span::share`] of
    /// its constant within its attribute's span.
    fn traffic(&self, pid: PredicateId) -> Option<f64> {
        let record = self.interner.record(pid);
        // A numeric constant widened its slot's span when interned.
        let c = record.numeric()?;
        self.spans[record.slot().index()].share(record.op(), c)
    }

    /// Live predicate `pid`, rebuilt from its record.
    fn predicate(&self, pid: PredicateId) -> Predicate {
        self.interner
            .predicate(pid, |slot| self.index.attr_name(slot))
    }

    /// `tree` with every leaf rebuilt as its predicate.
    fn rebuild(&self, tree: &IdExpr) -> Expr {
        match tree {
            IdExpr::Pred(pid) => Expr::pred(self.predicate(*pid)),
            IdExpr::And(cs) => Expr::and(cs.iter().map(|c| self.rebuild(c)).collect()),
            IdExpr::Or(cs) => Expr::or(cs.iter().map(|c| self.rebuild(c)).collect()),
        }
    }

    /// Moves `pid` into the phase-1 index (its first posting was just
    /// added) or out of it (its last one is gone). The posting list's
    /// emptiness is the state; the `indexed` bit only mirrors it for
    /// the leaf test.
    fn set_indexed(&mut self, pid: PredicateId, indexed: bool) {
        let pred = self.predicate(pid);
        if indexed {
            self.index.insert(pid, &pred);
        } else {
            let was_indexed = self.index.remove(pid, &pred);
            debug_assert!(was_indexed, "{pid} held postings but was not indexed");
        }
        self.indexed.set(pid, indexed);
    }

    /// The leaf test for one event's candidates; loads `view` when the
    /// set carries its event.
    fn leaf_test<'a>(
        &'a self,
        fulfilled: &'a FulfilledSet,
        view: &'a mut EventView,
    ) -> LeafTest<'a> {
        let event = fulfilled.event().map(|event| {
            view.load(event, |name| self.index.attr_slot(name));
            (event, &*view)
        });
        LeafTest {
            fulfilled,
            event,
            indexed: &self.indexed,
            interner: &self.interner,
            comparisons: 0,
        }
    }

    /// Decoded view of a registered subscription — the inverse of
    /// registration, useful for debugging and covering tools.
    ///
    /// # Errors
    ///
    /// Returns [`UnsubscribeError::UnknownSubscription`] for unknown
    /// ids.
    pub fn subscription_tree(&self, id: SubscriptionId) -> Result<IdExpr, UnsubscribeError> {
        let loc = self
            .locations
            .get(id.index())
            .copied()
            .filter(|l| !l.is_empty())
            .ok_or(UnsubscribeError::UnknownSubscription(id))?;
        Ok(encode::decode(self.arena.get(loc)).expect("engine-encoded trees are well-formed"))
    }

    /// Fragmentation of the tree arena (0.0 = none), exposed for the
    /// churn tests and operational metrics.
    pub fn arena_fragmentation(&self) -> f64 {
        self.arena.fragmentation()
    }

    /// Total entries in the predicate→subscription association table —
    /// one per distinct predicate of each subscription's necessary set
    /// (see the type-level documentation), not one per distinct leaf as
    /// in the paper's §3.2: `(a > 9 or a <= 1) and (b > 9 or b <= 1)`
    /// posts 2 entries, not 4; `s = "X" and (p > 5 or p <= 1)` posts 1;
    /// `not (a = 1)` is stored as `a != 1` and posts that.
    pub fn association_postings(&self) -> usize {
        self.assoc.posting_count()
    }

    /// Predicates currently in the phase-1 index: those with at least
    /// one posting (at most [`FilterEngine::predicate_count`], which
    /// counts every interned leaf).
    pub fn indexed_predicates(&self) -> usize {
        self.index.predicate_count()
    }
}

impl FilterEngine for NonCanonicalEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::NonCanonical
    }

    fn subscribe(&mut self, expr: &Expr) -> Result<SubscriptionId, SubscribeError> {
        SubscribeError::check_depth(expr)?;
        // The negation normal form, built compact: "binary operators
        // are treated as n-ary ones due to compacting subscription
        // trees" (§3.1).
        let nnf = transform::eliminate_not(expr);
        let mut acquired = Vec::with_capacity(nnf.predicate_count());
        let mut tree = self.compile(&nnf, &mut acquired);
        // Ranked before encoding: the stored tree records the choice.
        let association = self.association_of(&mut tree, |pid| self.traffic(pid));
        let bytes = match encode::encode(&tree) {
            Ok(b) if b.len() <= MAX_TREE_BYTES => Ok(b),
            Ok(b) => Err(SubscribeError::TreeTooLarge {
                bytes: b.len(),
                limit: MAX_TREE_BYTES,
            }),
            Err(e) => Err(e.into()),
        };
        let bytes = match bytes {
            Ok(b) => b,
            Err(e) => {
                for id in acquired {
                    self.interner.release(id);
                }
                return Err(e);
            }
        };

        let loc = self.arena.insert(&bytes);
        let sub_u32 = match self.free_subs.pop() {
            Some(free) => {
                self.locations[free as usize] = loc;
                free
            }
            None => {
                let next =
                    u32::try_from(self.locations.len()).expect("more than u32::MAX subscriptions");
                reserve_tight(&mut self.locations, 1);
                self.locations.push(loc);
                next
            }
        };
        self.live_subs += 1;

        // Slots for the whole id space, whichever ids get postings.
        self.assoc.cover(self.interner.universe());
        for pid in association {
            if self.assoc.get(pid).is_empty() {
                self.set_indexed(pid, true);
            }
            self.assoc.add(pid, sub_u32);
        }
        Ok(SubscriptionId::from_index(sub_u32 as usize))
    }

    fn unsubscribe(&mut self, id: SubscriptionId) -> Result<(), UnsubscribeError> {
        let slot = self
            .locations
            .get_mut(id.index())
            .ok_or(UnsubscribeError::UnknownSubscription(id))?;
        if slot.is_empty() {
            return Err(UnsubscribeError::UnknownSubscription(id));
        }
        let loc = std::mem::replace(slot, Loc::empty());

        // The tree itself is the record of which postings and
        // predicates to release — this is why the paper stores
        // subscriptions explicitly (§3.2, footnote 1).
        let mut tree =
            encode::decode(self.arena.get(loc)).expect("engine-encoded trees are well-formed");
        self.arena.remove(loc);

        let sub_u32 = u32::try_from(id.index()).expect("issued ids fit u32");
        // No estimates: the stored order holds the choice `subscribe`
        // made, whatever the spans have become since.
        for pid in self.association_of(&mut tree, |_| None) {
            let removed = self.assoc.remove(pid, sub_u32);
            debug_assert!(removed, "association entry missing for {pid}");
            if removed && self.assoc.get(pid).is_empty() {
                self.set_indexed(pid, false);
            }
        }
        tree.for_each_leaf(&mut |pid| {
            self.interner.release(pid);
        });
        self.free_subs.push(sub_u32);
        self.live_subs -= 1;
        Ok(())
    }

    fn expression(&self, id: SubscriptionId) -> Option<Expr> {
        // The stored tree is the original's negation normal form, its
        // AND children in the order `necessary_set` ranked them.
        let tree = self.subscription_tree(id).ok()?;
        Some(self.rebuild(&tree))
    }

    fn phase1(&self, event: &Event, out: &mut FulfilledSet) {
        // Access predicates only; the event goes along for the rest.
        out.begin_event(self.interner.universe(), event);
        self.index.for_each_match(event, |id| out.insert(id));
    }

    fn phase2(
        &self,
        fulfilled: &FulfilledSet,
        scratch: &mut MatchScratch,
        matched: &mut Vec<SubscriptionId>,
    ) -> MatchStats {
        matched.clear();
        let mut stats = MatchStats {
            fulfilled: fulfilled.len(),
            ..MatchStats::default()
        };

        // Candidate collection with generation-stamped deduplication,
        // in the caller's scratch.
        let gen = scratch.begin_stamps(self.locations.len());

        let mut candidates = std::mem::take(&mut scratch.candidates);
        candidates.clear();
        for &pid in fulfilled.ids() {
            for &sub in self.assoc.get(pid) {
                let stamp = &mut scratch.stamps[sub as usize];
                if *stamp != gen {
                    *stamp = gen;
                    candidates.push(sub);
                }
            }
        }
        stats.candidates = candidates.len();

        // Evaluate each candidate's Boolean expression once; a leaf's
        // value is its fulfilled stamp when the predicate is indexed,
        // its comparison against the event otherwise.
        if !candidates.is_empty() {
            let mut eval_stack = std::mem::take(&mut scratch.eval_stack);
            let mut leaves = self.leaf_test(fulfilled, &mut scratch.view);
            for &sub in &candidates {
                let loc = self.locations[sub as usize];
                debug_assert!(
                    !loc.is_empty(),
                    "association lists only reference live subscriptions"
                );
                stats.evaluations += 1;
                if eval_iterative_with(
                    self.arena.get(loc),
                    |pid| leaves.holds(pid),
                    &mut eval_stack,
                ) {
                    matched.push(SubscriptionId::from_index(sub as usize));
                }
            }
            stats.leaf_comparisons = leaves.comparisons;
            scratch.eval_stack = eval_stack;
        }
        scratch.candidates = candidates;
        stats.matched = matched.len();
        stats
    }

    fn subscription_count(&self) -> usize {
        self.live_subs
    }

    fn subscription_id_bound(&self) -> usize {
        self.locations.len()
    }

    fn predicate_count(&self) -> usize {
        self.interner.len()
    }

    fn predicate_universe(&self) -> usize {
        self.interner.universe()
    }

    fn memory_usage(&self) -> MemoryUsage {
        MemoryUsage {
            predicates: self.interner.heap_bytes()
                + self.indexed.heap_bytes()
                + self.spans.capacity() * std::mem::size_of::<Span>(),
            phase1_index: self.index.heap_bytes(),
            association: self.assoc.heap_bytes(),
            locations: self.locations.capacity() * std::mem::size_of::<Loc>()
                + self.free_subs.capacity() * std::mem::size_of::<u32>(),
            trees: self.arena.heap_bytes(),
            vectors: 0,
            unsub_support: 0,
            // Per-event scratch is caller-owned now
            // (`MatchScratch::heap_bytes`); the engine holds none.
            scratch: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BatchScratch, Matcher};
    use boolmatch_types::AttrId;
    use boolmatch_workload::scenarios::TreeScenario;
    use std::sync::Arc;

    fn engine_with(subs: &[&str]) -> (Matcher<NonCanonicalEngine>, Vec<SubscriptionId>) {
        let mut e = Matcher::new(NonCanonicalEngine::new());
        let ids = subs
            .iter()
            .map(|s| e.subscribe(&Expr::parse(s).unwrap()).unwrap())
            .collect();
        (e, ids)
    }

    #[test]
    fn fig1_subscription_matches() {
        let (mut e, ids) =
            engine_with(&["(a > 10 or a <= 5 or b = 1) and (c <= 20 or c = 30 or d = 5)"]);
        let hit = Event::builder().attr("a", 12_i64).attr("c", 30_i64).build();
        assert_eq!(e.match_event(&hit).matched, vec![ids[0]]);
        let miss = Event::builder().attr("a", 7_i64).attr("c", 30_i64).build();
        assert!(e.match_event(&miss).matched.is_empty());
    }

    #[test]
    fn multiple_subscriptions_and_stats() {
        let (mut e, ids) = engine_with(&[
            "price > 100 and volume > 10",
            "price > 100 or volume > 10",
            "symbol = \"IBM\"",
        ]);
        let ev = Event::builder().attr("price", 150_i64).build();
        let result = e.match_event(&ev);
        assert_eq!(result.matched, vec![ids[1]]);
        // price > 100 fulfilled -> subs 0 and 1 are candidates
        assert_eq!(result.stats.fulfilled, 1);
        assert_eq!(result.stats.candidates, 2);
        assert_eq!(result.stats.evaluations, 2);
        assert_eq!(result.stats.matched, 1);
    }

    #[test]
    fn shared_predicates_are_interned_once() {
        let (e, _) = engine_with(&["a = 1 and b = 2", "a = 1 and c = 3", "a = 1"]);
        // a=1 shared by three subscriptions: 3 distinct predicates
        // total (a=1, b=2, c=3).
        assert_eq!(e.predicate_count(), 3);
    }

    #[test]
    fn duplicate_predicate_in_one_subscription() {
        // a=1 occurs twice; candidate collection must not double-count
        // and refcounts must balance on unsubscribe.
        let (mut e, ids) = engine_with(&["a = 1 or (a = 1 and b = 2)"]);
        let ev = Event::builder().attr("a", 1_i64).build();
        let r = e.match_event(&ev);
        assert_eq!(r.matched, vec![ids[0]]);
        assert_eq!(r.stats.candidates, 1);
        e.unsubscribe(ids[0]).unwrap();
        assert_eq!(e.predicate_count(), 0);
        assert_eq!(e.subscription_count(), 0);
    }

    #[test]
    fn not_is_false_on_a_missing_attribute() {
        let (mut e, ids) = engine_with(&["not (a = 1) and b = 2"]);
        // b=2 present, a=3 (so a=1 false): matches.
        let ev = Event::builder().attr("a", 3_i64).attr("b", 2_i64).build();
        assert_eq!(e.match_event(&ev).matched, vec![ids[0]]);
        // a missing entirely: `a = 1` is unknown, and so is its
        // negation, stored as `a != 1`.
        let ev = Event::builder().attr("b", 2_i64).build();
        assert!(e.match_event(&ev).matched.is_empty());
        // a of another kind: unknown as well.
        let ev = Event::builder().attr("a", "one").attr("b", 2_i64).build();
        assert!(e.match_event(&ev).matched.is_empty());
        // a=1: no match.
        let ev = Event::builder().attr("a", 1_i64).attr("b", 2_i64).build();
        assert!(e.match_event(&ev).matched.is_empty());
        // Stored with its access equality first.
        assert_eq!(
            e.expression(ids[0]).unwrap().to_string(),
            "b = 2 and a != 1"
        );
    }

    #[test]
    fn unsubscribe_removes_matches_and_frees() {
        let (mut e, ids) = engine_with(&["a = 1", "a = 1 or b = 2"]);
        let ev = Event::builder().attr("a", 1_i64).build();
        assert_eq!(e.match_event(&ev).matched.len(), 2);

        e.unsubscribe(ids[0]).unwrap();
        assert_eq!(e.match_event(&ev).matched, vec![ids[1]]);
        assert_eq!(e.subscription_count(), 1);
        // a=1 still referenced by sub 1; b=2 still live.
        assert_eq!(e.predicate_count(), 2);

        e.unsubscribe(ids[1]).unwrap();
        assert!(e.match_event(&ev).matched.is_empty());
        assert_eq!(e.predicate_count(), 0);
    }

    #[test]
    fn unsubscribe_unknown_or_twice_errors() {
        let (mut e, ids) = engine_with(&["a = 1"]);
        e.unsubscribe(ids[0]).unwrap();
        assert!(matches!(
            e.unsubscribe(ids[0]),
            Err(UnsubscribeError::UnknownSubscription(_))
        ));
        assert!(matches!(
            e.unsubscribe(SubscriptionId::from_index(999)),
            Err(UnsubscribeError::UnknownSubscription(_))
        ));
    }

    #[test]
    fn an_unsubscribed_id_is_reissued_and_matches_only_its_new_expression() {
        let (mut e, ids) = engine_with(&["a = 1 and b = 2", "c = 3"]);
        e.unsubscribe(ids[0]).unwrap();
        let reissued = e.subscribe(&Expr::parse("d = 4").unwrap()).unwrap();
        assert_eq!(
            reissued, ids[0],
            "the freed slot goes to the next subscribe"
        );
        assert_eq!(e.subscription_id_bound(), 2);
        let old = Event::builder().attr("a", 1_i64).attr("b", 2_i64).build();
        let r = e.match_event(&old);
        assert!(r.matched.is_empty());
        assert_eq!(r.stats.candidates, 0, "the old postings left with it");
        let new = Event::builder().attr("d", 4_i64).attr("c", 3_i64).build();
        assert_eq!(sorted(e.match_event(&new).matched), ids);
        // A churning slot keeps every table at the peak live count.
        e.unsubscribe(reissued).unwrap();
        let bytes = e.memory_usage().locations;
        for i in 0..100 {
            let id = e
                .subscribe(&Expr::parse(&format!("x = {i}")).unwrap())
                .unwrap();
            assert_eq!(id, ids[0]);
            e.unsubscribe(id).unwrap();
        }
        assert_eq!(e.subscription_id_bound(), 2);
        assert_eq!(e.memory_usage().locations, bytes);
    }

    #[test]
    fn arena_space_is_reused_after_churn() {
        let mut e = Matcher::new(NonCanonicalEngine::new());
        let expr = Expr::parse("(a = 1 or b = 2) and (c = 3 or d = 4)").unwrap();
        let mut ids = Vec::new();
        for _ in 0..100 {
            ids.push(e.subscribe(&expr).unwrap());
        }
        for id in ids.drain(..) {
            e.unsubscribe(id).unwrap();
        }
        for _ in 0..100 {
            ids.push(e.subscribe(&expr).unwrap());
        }
        assert!(
            e.arena_fragmentation() < 0.01,
            "fragmentation {} after same-shape churn",
            e.arena_fragmentation()
        );
    }

    #[test]
    fn subscription_tree_round_trip() {
        let (e, ids) = engine_with(&["(a = 1 or b = 2) and c = 3"]);
        let tree = e.subscription_tree(ids[0]).unwrap();
        assert_eq!(tree.leaf_count(), 3);
        assert!(matches!(tree, IdExpr::And(_)));
    }

    #[test]
    fn phase_separation_agrees_with_match_event() {
        let (mut e, _) =
            engine_with(&["a > 5 and b < 3", "a > 5 or c = 1", "not (a > 5) and c = 1"]);
        let ev = Event::builder().attr("a", 10_i64).attr("c", 1_i64).build();
        let full = e.match_event(&ev);

        let mut fulfilled = FulfilledSet::new();
        e.phase1(&ev, &mut fulfilled);
        let mut matched = Vec::new();
        let stats = e.phase2(&fulfilled, &mut matched);
        assert_eq!(matched, full.matched);
        assert_eq!(stats, full.stats);
    }

    #[test]
    fn phase2_with_synthetic_fulfilled_set() {
        // The Fig. 3 setup: fulfilled ids synthesized, no event.
        let mut e = Matcher::new(NonCanonicalEngine::new());
        let id = e
            .subscribe(&Expr::parse("(a = 1 or b = 2) and c = 3").unwrap())
            .unwrap();
        // Predicates were interned in syntactic order: a=1 -> p0,
        // b=2 -> p1, c=3 -> p2.
        let set = FulfilledSet::from_ids(
            [PredicateId::from_index(1), PredicateId::from_index(2)],
            e.predicate_universe(),
        );
        let mut matched = Vec::new();
        e.phase2(&set, &mut matched);
        assert_eq!(matched, vec![id]);
        // The same engine matches full events through its phase-1 index.
        let ev = Event::builder().attr("a", 1_i64).attr("c", 3_i64).build();
        assert_eq!(e.match_event(&ev).matched, vec![id]);
    }

    #[test]
    fn batch_matches_like_scalar() {
        let mut e = NonCanonicalEngine::new();
        for i in 0..30 {
            let s = format!(
                "(a{} > 5 or b{} = 2) and not (c{} = 9)",
                i % 6,
                i % 4,
                i % 3
            );
            e.subscribe(&Expr::parse(&s).unwrap()).unwrap();
        }
        for n in [1usize, 7, 70] {
            let events: Vec<Arc<Event>> = (0..n)
                .map(|i| {
                    Arc::new(
                        Event::builder()
                            .attr("a0", if i % 2 == 0 { 10_i64 } else { 1 })
                            .attr("b1", 2_i64)
                            .attr("c0", if i % 5 == 0 { 9_i64 } else { 0 })
                            .build(),
                    )
                })
                .collect();
            crate::engine::assert_batch_equals_per_event(&e, &events, &format!("batch {n}"));
        }
    }

    #[test]
    fn batch_skip_mask_and_candidate_dedup() {
        // A predicate occurring in several fulfilled branches must make
        // the subscription one candidate per event, and skipped events
        // contribute nothing.
        let (e, ids) = engine_with(&["a = 1 or (a = 1 and b = 2)", "b = 2"]);
        let events: Vec<Arc<Event>> = (0..4)
            .map(|_| Arc::new(Event::builder().attr("a", 1_i64).attr("b", 2_i64).build()))
            .collect();
        let mut batch = BatchScratch::new();
        let stats = e
            .engine()
            .match_batch(&events, &[false, true, false, true], &mut batch);
        assert_eq!(stats.batch_events, 2);
        assert_eq!(stats.candidates, 4); // 2 live events × 2 candidates
        for i in [0, 2] {
            let mut got = batch.matched(i).to_vec();
            got.sort();
            assert_eq!(got, ids, "event {i}");
        }
        for i in [1, 3] {
            assert!(batch.matched(i).is_empty(), "event {i}");
        }
    }

    #[test]
    fn memory_usage_grows_with_subscriptions() {
        let mut e = NonCanonicalEngine::new();
        let base = e.memory_usage().total();
        for i in 0..100 {
            let s = format!("(a{i} = 1 or b{i} = 2) and c{i} = 3");
            e.subscribe(&Expr::parse(&s).unwrap()).unwrap();
        }
        let grown = e.memory_usage();
        assert!(grown.total() > base);
        assert!(grown.trees > 0);
        assert!(grown.association > 0);
        assert!(grown.phase2_bytes() < grown.total());
    }

    #[test]
    fn empty_engine_matches_nothing() {
        let mut e = Matcher::new(NonCanonicalEngine::new());
        let ev = Event::builder().attr("a", 1_i64).build();
        let r = e.match_event(&ev);
        assert!(r.matched.is_empty());
        assert_eq!(r.stats.fulfilled, 0);
    }

    // ---- the association rule ------------------------------------

    fn leaf(i: usize) -> IdExpr {
        IdExpr::Pred(PredicateId::from_index(i))
    }

    /// An interner holding `attr{i} OP 1` on slot `i` under id `i`, one
    /// per `ops` entry.
    fn interner_of(ops: &[CompareOp]) -> PredicateInterner {
        let mut interner = PredicateInterner::new();
        for (i, &op) in ops.iter().enumerate() {
            let pred = Predicate::new(&format!("attr{i}"), op, 1_i64);
            let (id, fresh) = interner.intern(AttrId::from_index(i), &pred);
            assert!(fresh);
            assert_eq!(id.index(), i);
        }
        interner
    }

    /// The rule's raw output (leaf order, duplicates kept) as indexes,
    /// without estimates.
    fn rule(tree: &IdExpr, interner: &PredicateInterner) -> Vec<usize> {
        let mut out = Vec::new();
        necessary_set(&mut tree.clone(), interner, &|_| None, &mut out);
        out.iter().map(|id| id.index()).collect()
    }

    #[test]
    fn rule_equality_beats_range_inside_an_and() {
        use CompareOp::{Contains, Eq, Gt, Ne};
        let interner = interner_of(&[Gt, Eq, Ne, Contains]);
        assert_eq!(
            rule(&IdExpr::And(vec![leaf(0), leaf(1)]), &interner),
            vec![1]
        );
        assert_eq!(
            rule(&IdExpr::And(vec![leaf(2), leaf(3), leaf(1)]), &interner),
            vec![1],
            "`!=` and string operators rank with ranges"
        );
    }

    #[test]
    fn rule_or_unions_and_and_of_or_pairs_takes_one_pair() {
        use CompareOp::{Gt, Le};
        let interner = interner_of(&[Gt, Le, Gt, Le, Gt, Le, Gt, Le]);
        let pair = |i: usize| IdExpr::Or(vec![leaf(2 * i), leaf(2 * i + 1)]);
        assert_eq!(rule(&pair(1), &interner), vec![2, 3]);
        // The paper's shape: equal-cost pairs, so the first one.
        let paper = IdExpr::And((0..4).map(pair).collect());
        assert_eq!(rule(&paper, &interner), vec![0, 1]);
        // Nested ORs flatten into one union, duplicates kept for the
        // caller to drop.
        let nested = IdExpr::Or(vec![pair(0), leaf(5), leaf(0)]);
        assert_eq!(rule(&nested, &interner), vec![0, 1, 5, 0]);
    }

    #[test]
    fn rule_prefers_fewer_predicates_then_the_first_child() {
        use CompareOp::{Eq, Gt};
        let interner = interner_of(&[Eq, Eq, Gt, Eq, Gt]);
        // One range predicate is cheaper than two equalities.
        let tree = IdExpr::And(vec![IdExpr::Or(vec![leaf(0), leaf(1)]), leaf(2)]);
        assert_eq!(rule(&tree, &interner), vec![2]);
        // Equal cost: child order decides, also when a later child ties.
        assert_eq!(
            rule(&IdExpr::And(vec![leaf(3), leaf(0), leaf(1)]), &interner),
            vec![3]
        );
        assert_eq!(
            rule(&IdExpr::And(vec![leaf(4), leaf(2)]), &interner),
            vec![4]
        );
        // A later, strictly cheaper child replaces the earlier pick.
        let tree = IdExpr::And(vec![leaf(2), IdExpr::Or(vec![leaf(0), leaf(1)]), leaf(3)]);
        assert_eq!(rule(&tree, &interner), vec![3]);
    }

    #[test]
    fn subscribe_and_unsubscribe_pick_the_same_set() {
        // (text, postings): unsubscribe debug-asserts that every
        // posting it recomputes from the stored tree exists.
        let wide_or = (0..600)
            .map(|i| format!("w{i} = 1"))
            .collect::<Vec<_>>()
            .join(" or ");
        let wide_and = (0..600)
            .map(|i| format!("v{i} > 1"))
            .collect::<Vec<_>>()
            .join(" and ");
        let cases: Vec<(String, usize)> = vec![
            ("(a > 9 or a <= 1) and (b > 9 or b <= 1)".into(), 2),
            ("s = \"X\" and (p > 5 or p <= 1) and v >= 3".into(), 1),
            ("t = 1 or urgent = 1".into(), 2),
            ("a = 1 or (a = 1 and b = 2)".into(), 1),
            ("not (a = 1)".into(), 1),
            ("a = 1 or not (b = 2)".into(), 2),
            ("not (a = 1) and b = 2".into(), 1),
            // Wider than one encoded node: stored re-nested in chunks.
            (wide_or, 600),
            (format!("({wide_and}) and z = 1"), 1),
            (wide_and, 1),
            // Spans c, d = [0, 100]; then d's pair (traffic 0.04) wins
            // the tie over c's (0.2) and is stored first; then d's span
            // widens until c's pair would win a re-ranking.
            ("c >= 0 and c <= 100 and d >= 0 and d <= 100".into(), 1),
            ("(c > 90 or c <= 10) and (d > 98 or d <= 2)".into(), 2),
            ("d > 10000 or d <= -10000".into(), 2),
        ];
        let mut e = NonCanonicalEngine::new();
        let mut expected = 0;
        let mut ids = Vec::new();
        for (text, postings) in &cases {
            ids.push(e.subscribe(&Expr::parse(text).unwrap()).unwrap());
            expected += postings;
            assert_eq!(e.association_postings(), expected, "after `{text:.60}`");
        }
        for (id, (text, postings)) in ids.into_iter().zip(&cases) {
            e.unsubscribe(id).unwrap();
            expected -= postings;
            assert_eq!(e.association_postings(), expected, "after `{text:.60}`");
        }
        assert_eq!(e.indexed_predicates(), 0);
        assert_eq!(e.predicate_count(), 0);
    }

    #[test]
    fn an_and_of_tied_pairs_is_posted_under_its_narrowest_pair() {
        // Sets the spans of `a` and `b` to [0, 100], posted under `s`.
        let (mut e, _) = engine_with(&["s = 1 and a >= 0 and a <= 100 and b >= 0 and b <= 100"]);
        assert_eq!((e.association_postings(), e.indexed_predicates()), (1, 1));
        // Equal keys (two range predicates each); `a`'s pair is
        // estimated at 0.2 of events, `b`'s at 0.04.
        let x = e
            .subscribe(&Expr::parse("(a > 90 or a <= 10) and (b > 98 or b <= 2)").unwrap())
            .unwrap();
        assert_eq!((e.association_postings(), e.indexed_predicates()), (3, 3));
        let a_only = Event::builder().attr("a", 95_i64).attr("b", 50_i64).build();
        assert_eq!(e.match_event(&a_only).stats.candidates, 0);
        let b_only = Event::builder().attr("a", 50_i64).attr("b", 99_i64).build();
        let r = e.match_event(&b_only);
        assert_eq!(r.stats.candidates, 1);
        assert!(r.matched.is_empty());
        // The choice is recorded as the first child of the stored tree.
        let IdExpr::And(children) = e.subscription_tree(x).unwrap() else {
            panic!("an AND is stored as an AND")
        };
        let mut first = Vec::new();
        children[0].for_each_leaf(&mut |pid| first.push(e.predicate(pid).to_string()));
        assert_eq!(first, ["b > 98", "b <= 2"]);
    }

    #[test]
    fn candidates_follow_the_necessary_set_not_every_leaf() {
        let (mut e, ids) = engine_with(&[
            "(a > 9 or a <= 1) and (b > 9 or b <= 1)",
            "s = 7 and (a > 9 or a <= 1)",
        ]);
        // b's pair is fulfilled, a's is not: with one posting per leaf
        // the first subscription was a candidate here; it needs a's pair.
        let ev = Event::builder().attr("a", 5_i64).attr("b", 10_i64).build();
        let r = e.match_event(&ev);
        assert!(r.matched.is_empty());
        assert_eq!(
            r.stats.fulfilled, 0,
            "b > 9 holds, but b's pair has no postings and is not indexed"
        );
        assert_eq!(
            r.stats.candidates, 0,
            "neither subscription's necessary set (a's pair; s = 7) is fulfilled"
        );
        // a's pair fulfilled: the first is a candidate, the second
        // still waits for its equality.
        let ev = Event::builder().attr("a", 10_i64).attr("b", 5_i64).build();
        let r = e.match_event(&ev);
        assert!(r.matched.is_empty());
        assert_eq!(r.stats.candidates, 1, "only a's pair is associated");
        let ev = Event::builder()
            .attr("a", 10_i64)
            .attr("b", 0_i64)
            .attr("s", 7_i64)
            .build();
        let r = e.match_event(&ev);
        assert_eq!(r.matched, ids);
        assert_eq!(r.stats.candidates, 2);
    }

    #[test]
    fn not_only_subscriptions_are_posted_under_their_complements() {
        let (mut e, ids) = engine_with(&[
            "not (a = 1)",
            "a = 1 or not (b = 2)",
            "not (a = 1) and b = 2",
            "a = 1",
        ]);
        // Carries none of the subscribed attributes: every leaf is
        // unknown, so nothing is a candidate and nothing matches.
        let nothing = Event::builder().attr("unrelated", 0_i64).build();
        let r = e.match_event(&nothing);
        assert_eq!(r.stats.fulfilled, 0);
        assert!(r.matched.is_empty());
        assert_eq!(r.stats.candidates, 0, "every subscription has postings");
        // `a != 1` and `b != 2` hold: the first two are candidates
        // through the complements they are posted under.
        let a2 = Event::builder().attr("a", 2_i64).attr("b", 3_i64).build();
        let r = e.match_event(&a2);
        assert_eq!(r.matched, vec![ids[0], ids[1]]);
        assert_eq!(r.stats.candidates, 2);

        // A batch agrees, event by event, skipped events aside.
        let a1 = Event::builder().attr("a", 1_i64).build();
        let events: Vec<Arc<Event>> = [&a2, &a1, &nothing, &a1, &nothing]
            .into_iter()
            .map(|ev| Arc::new(ev.clone()))
            .collect();
        let mut batch = BatchScratch::new();
        e.engine()
            .match_batch(&events, &[false, false, true, false, false], &mut batch);
        assert_eq!(batch.matched(0), &[ids[0], ids[1]]);
        assert!(batch.matched(2).is_empty(), "skipped event");
        assert!(batch.matched(4).is_empty(), "fulfils nothing");
        for i in [1, 3] {
            let mut got = batch.matched(i).to_vec();
            got.sort();
            assert_eq!(got, vec![ids[1], ids[3]], "event {i}");
        }

        // Unsubscribing takes their postings with them.
        e.unsubscribe(ids[0]).unwrap();
        assert_eq!(e.match_event(&a2).matched, vec![ids[1]]);
        e.unsubscribe(ids[1]).unwrap();
        let r = e.match_event(&a2);
        assert!(r.matched.is_empty());
        assert_eq!(r.stats.candidates, 0);
    }

    /// The structural invariant of the access-only index: a predicate
    /// is indexed, and flagged so, exactly while it holds postings.
    fn assert_index_holds_the_access_predicates(e: &NonCanonicalEngine) {
        let mut with_postings = 0;
        for i in 0..e.interner.universe() {
            let posted = !e.assoc.get(PredicateId::from_index(i)).is_empty();
            with_postings += usize::from(posted);
            assert_eq!(
                e.indexed.contains(PredicateId::from_index(i)),
                posted,
                "flag of predicate slot {i}"
            );
        }
        assert_eq!(e.indexed_predicates(), with_postings);
    }

    fn sorted(mut ids: Vec<SubscriptionId>) -> Vec<SubscriptionId> {
        ids.sort();
        ids
    }

    /// The engine's private invariants on the generated-tree corpus,
    /// whose answers `tests/oracle_matrix.rs` checks through every
    /// broker configuration: the index flag, unindexed leaves of every
    /// operator and kind, and postings draining to zero. Every stored tree also round-trips the encoding and
    /// evaluates under [`crate::eval_iterative`] exactly as its decoded
    /// [`IdExpr::eval`] reference does, and every match reports
    /// consistent stats.
    #[test]
    fn generated_trees_match_the_oracle_under_churn() {
        let mut corpus = TreeScenario::new(0x5EED_2005);
        let mut e = NonCanonicalEngine::new();
        let mut live: Vec<SubscriptionId> = Vec::new();
        let mut scratch = MatchScratch::new();
        let mut fulfilled = FulfilledSet::new();
        let mut lazy_ops = std::collections::BTreeSet::new();
        let mut lazy_kinds = std::collections::BTreeSet::new();
        let mut leaf_comparisons = 0;

        for round in 0..40 {
            // Churn: drop a random third, add a fresh dozen.
            for _ in 0..live.len() / 3 {
                let id = live.swap_remove(corpus.pick(live.len()));
                e.unsubscribe(id).unwrap();
            }
            for _ in 0..12 {
                live.push(e.subscribe(&corpus.subscription()).unwrap());
            }
            assert_index_holds_the_access_predicates(&e);
            for i in 0..e.interner.universe() {
                let id = PredicateId::from_index(i);
                if e.interner.refcount(id) > 0 && e.assoc.get(id).is_empty() {
                    lazy_ops.insert(e.predicate(id).op());
                    lazy_kinds.insert(e.predicate(id).value_kind());
                }
            }

            let mut events = vec![
                Event::builder().build(),
                Event::builder()
                    .attr("x0", 1_i64)
                    .attr("x1", 1_i64)
                    .attr("x2", 1_i64)
                    .attr("x3", 1_i64)
                    .attr("f", 1.0)
                    .attr("s", "ab")
                    .attr("b", true)
                    .build(),
            ];
            events.extend((0..6).map(|_| corpus.event()));
            for (i, event) in events.iter().enumerate() {
                let r = e.match_event(event, &mut scratch);
                let context = format!("round {round}, event {i}: {event}");
                assert_eq!(r.stats.matched, r.matched.len(), "{context}");
                assert_eq!(r.stats.evaluations, r.stats.candidates, "{context}");
                leaf_comparisons += r.stats.leaf_comparisons;

                e.phase1(event, &mut fulfilled);
                for &id in &live {
                    let tree = e.subscription_tree(id).unwrap();
                    let bytes = encode::encode(&tree).unwrap();
                    assert_eq!(encode::decode(&bytes).unwrap(), tree, "{context}");
                    assert_eq!(
                        crate::eval_iterative(&bytes, &fulfilled),
                        tree.eval(&fulfilled),
                        "{context}: {tree:?}"
                    );
                }
            }
        }
        assert_eq!(lazy_ops.len(), 10, "unindexed leaves of every operator");
        assert_eq!(lazy_kinds.len(), 4, "unindexed leaves of every kind");
        assert!(leaf_comparisons > 0);

        for id in live {
            e.unsubscribe(id).unwrap();
        }
        assert_eq!(e.association_postings(), 0);
        assert_eq!(e.predicate_count(), 0);
        assert_eq!(e.indexed_predicates(), 0);
    }

    #[test]
    fn a_predicate_enters_the_index_with_its_first_posting_and_leaves_with_its_last() {
        let mut e = Matcher::new(NonCanonicalEngine::new());
        let mut live: Vec<(SubscriptionId, Expr)> = Vec::new();
        let events = [
            Event::builder().attr("s", 1_i64).attr("p", 9_i64).build(),
            Event::builder().attr("s", 1_i64).attr("p", 2_i64).build(),
            Event::builder().attr("p", 9_i64).build(),
            Event::builder().attr("s", 1_i64).build(),
            Event::builder().attr("t", 3_i64).attr("q", 1_i64).build(),
            // Values that would satisfy `q < 4` if it were read at the
            // attribute its reused id slot belonged to before.
            Event::builder()
                .attr("t", 3_i64)
                .attr("s", 1_i64)
                .attr("p", 1_i64)
                .build(),
        ];
        // Oracle check on every event plus the structural invariant;
        // returns the comparisons the first event cost.
        let check = |e: &mut Matcher<NonCanonicalEngine>, live: &[(SubscriptionId, Expr)]| {
            assert_index_holds_the_access_predicates(e.engine());
            let mut first = None;
            for event in &events {
                let want: Vec<SubscriptionId> = live
                    .iter()
                    .filter(|(_, expr)| expr.eval_event(event))
                    .map(|(id, _)| *id)
                    .collect();
                let r = e.match_event(event);
                assert_eq!(sorted(r.matched), want, "on {event}");
                first.get_or_insert(r.stats.leaf_comparisons);
            }
            first.unwrap()
        };
        let subscribe = |e: &mut Matcher<NonCanonicalEngine>,
                         live: &mut Vec<(SubscriptionId, Expr)>,
                         text: &str| {
            let expr = Expr::parse(text).unwrap();
            let id = e.subscribe(&expr).unwrap();
            live.push((id, expr));
            id
        };

        // X is posted under its equality; `p > 5` is an unindexed leaf.
        let x = subscribe(&mut e, &mut live, "s = 1 and p > 5");
        assert_eq!(e.indexed_predicates(), 1);
        assert_eq!(check(&mut e, &live), 1, "X's `p > 5` is compared");

        // Y posts under `p > 5`: it enters the index and X's leaf reads
        // the stamp.
        let y = subscribe(&mut e, &mut live, "p > 5");
        assert_eq!(e.indexed_predicates(), 2);
        assert_eq!(check(&mut e, &live), 0, "both leaves are indexed");

        // Y leaves: `p > 5` lost its last posting but X still holds it.
        e.unsubscribe(y).unwrap();
        live.retain(|(id, _)| *id != y);
        assert_eq!(e.predicate_count(), 2);
        assert_eq!(e.indexed_predicates(), 1);
        assert_eq!(check(&mut e, &live), 1, "compared again");

        e.unsubscribe(x).unwrap();
        live.clear();
        assert_eq!(e.predicate_count(), 0);
        assert_eq!(e.indexed_predicates(), 0);
        check(&mut e, &live);

        // The freed id slots go to predicates on other attributes.
        subscribe(&mut e, &mut live, "t = 3 and q < 4");
        assert_eq!(e.predicate_universe(), 2, "both id slots were reused");
        assert_eq!(e.indexed_predicates(), 1);
        check(&mut e, &live);
    }

    #[test]
    fn a_set_without_an_event_decides_every_leaf_by_membership() {
        // The Fig. 3 harness: ids synthesized, no event. `c = 3` is the
        // access predicate, `a = 1` and `b = 2` are not; all three are
        // decided by the set.
        let mut e = Matcher::new(NonCanonicalEngine::new());
        let id = e
            .subscribe(&Expr::parse("(a = 1 or b = 2) and c = 3").unwrap())
            .unwrap();
        assert_eq!(e.indexed_predicates(), 1);
        let set = |ids: &[usize]| {
            FulfilledSet::from_ids(ids.iter().map(|&i| PredicateId::from_index(i)), 3)
        };
        let mut matched = Vec::new();
        let stats = e.phase2(&set(&[1, 2]), &mut matched);
        assert_eq!(matched, vec![id]);
        assert_eq!(stats.leaf_comparisons, 0);
        let stats = e.phase2(&set(&[2]), &mut matched);
        assert!(matched.is_empty());
        assert_eq!((stats.candidates, stats.leaf_comparisons), (1, 0));
        e.phase2(&set(&[0, 1]), &mut matched);
        assert!(matched.is_empty(), "no access predicate, no candidate");
    }

    /// `x = i and (y = … or …)` for `i < 17`, joined by `or`, on
    /// distinct predicates: sixteen children with 9 180 `y` leaves —
    /// the widest a child can be, as its `or` encodes to 64 406 bytes
    /// and a child's width has two bytes — and a last one with `last`.
    /// For `last` over 255 the whole encodes to 1 030 708 + 11 + 2 +
    /// 4·⌈last / 255⌉ + 7·`last` bytes (see the `encode` module for the
    /// layout).
    fn wide_tree((x, y): (&str, &str), last: usize) -> Expr {
        let mut next = 0_i64;
        let children = (0..17)
            .map(|i| {
                let width = if i < 16 { 9_180 } else { last };
                let leaves = (0..width)
                    .map(|_| {
                        next += 1;
                        Expr::pred(Predicate::new(y, CompareOp::Eq, next))
                    })
                    .collect();
                Expr::and(vec![
                    Expr::pred(Predicate::new(x, CompareOp::Eq, i)),
                    Expr::or(leaves),
                ])
            })
            .collect();
        Expr::or(children)
    }

    #[test]
    fn a_tree_over_the_size_limit_is_refused_and_releases_its_predicates() {
        let mut e = NonCanonicalEngine::new();
        e.subscribe(&Expr::parse("a = 1").unwrap()).unwrap();
        // 2 545 last leaves encode to exactly the limit: accepted.
        let at_limit = e.subscribe(&wide_tree(("x", "y"), 2_545)).unwrap();
        let before = e.predicate_count();
        assert_eq!(before, 1 + 17 + 16 * 9_180 + 2_545);

        let err = e.subscribe(&wide_tree(("u", "v"), 2_546)).unwrap_err();
        assert_eq!(
            err,
            SubscribeError::TreeTooLarge {
                bytes: MAX_TREE_BYTES + 7,
                limit: MAX_TREE_BYTES,
            }
        );
        assert_eq!(
            err.to_string(),
            "subscription tree encodes to 1048583 bytes, over the 1048576-byte tree limit"
        );
        assert_eq!(
            e.predicate_count(),
            before,
            "every acquired predicate released"
        );
        assert_eq!(e.subscription_count(), 2);

        e.unsubscribe(at_limit).unwrap();
        assert_eq!(e.predicate_count(), 1);
    }
}
