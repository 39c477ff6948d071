//! The canonical baselines: the counting algorithm and its
//! candidate-driven variant.
//!
//! Both engines accept the same arbitrary Boolean subscriptions as the
//! non-canonical engine, but — like every conjunctive-only matcher —
//! they must first **transform each subscription into DNF** and
//! register every conjunction as a separate *flat subscription*
//! (paper §1–2). The tables follow the memory-friendly implementation
//! the paper compares against (Ashayer et al. [2]): a
//! *subscription-predicate count vector* and a *hit vector* with
//! one-byte entries, plus the predicate→conjunction association table.
//!
//! The two engines share all tables and differ only in phase 2:
//!
//! * [`CountingEngine`] compares hit and count entries for **every**
//!   registered conjunction — cost linear in the (transformed)
//!   subscription count, the linear curves of Fig. 3.
//! * [`CountingVariantEngine`] records **candidate** conjunctions while
//!   incrementing and compares only those (paper §3.3) — sublinear, but
//!   still paying the full transformation blow-up in memory and
//!   redundant increments.

use boolmatch_expr::{transform, Expr};
use boolmatch_index::PredicateIndex;
use boolmatch_types::Event;

use crate::assoc::AssocTable;
use crate::engine::{EngineKind, FilterEngine, SubscribeError, UnsubscribeError};
use crate::memory::reserve_tight;
use crate::{
    FulfilledSet, MatchScratch, MatchStats, MemoryUsage, PredicateId, PredicateInterner,
    SubscriptionId,
};

/// Maximum conjunctions a single subscription may expand to;
/// [`FilterEngine::subscribe`] fails with [`SubscribeError::DnfTooLarge`]
/// beyond it. The paper's workloads need at most 32.
const DNF_LIMIT: usize = 65_536;

/// Maximum predicates per conjunct: hit/count vector entries are one
/// byte (paper §3.3 assumes at most 256 predicates per subscription).
const MAX_CONJUNCT_WIDTH: usize = 255;

/// Sentinel for a freed flat slot's original-subscription column.
const DEAD_ORIG: u32 = u32::MAX;

/// Everything both counting engines share.
#[derive(Debug)]
struct CountingTables {
    interner: PredicateInterner,
    index: PredicateIndex<PredicateId>,
    /// Predicate → flat conjunctions containing it.
    assoc: AssocTable<u32>,
    /// Flat conjunction → number of predicates (0 = dead slot).
    cnt: Vec<u8>,
    /// Flat conjunction → original subscription (dense index).
    flat_orig: Vec<u32>,
    free_flats: Vec<u32>,
    /// Original subscription → unsubscription metadata (`None`: a free
    /// slot).
    origs: Vec<Option<OrigMeta>>,
    /// Free slots of `origs`, most recently freed last: subscribe
    /// reissues from the end before it appends, as it does with
    /// `free_flats`.
    free_origs: Vec<u32>,
    live_origs: usize,
    live_flats: usize,
}

/// Per-original-subscription bookkeeping needed only for
/// unsubscription (the paper's baseline omits this; kept in a separate
/// [`MemoryUsage`] bucket so the memory-wall model can exclude it).
#[derive(Debug)]
struct OrigMeta {
    flats: Vec<u32>,
    /// Interner acquisitions (NNF leaf occurrences) to release.
    acquired: Vec<PredicateId>,
}

impl CountingTables {
    fn new() -> Self {
        CountingTables {
            interner: PredicateInterner::new(),
            index: PredicateIndex::new(),
            assoc: AssocTable::new(),
            cnt: Vec::new(),
            flat_orig: Vec::new(),
            free_flats: Vec::new(),
            origs: Vec::new(),
            free_origs: Vec::new(),
            live_origs: 0,
            live_flats: 0,
        }
    }

    fn subscribe(&mut self, expr: &Expr) -> Result<SubscriptionId, SubscribeError> {
        SubscribeError::check_depth(expr)?;
        // Negation is pushed into the leaves first; the DNF then draws
        // its predicates from this NNF form. The non-canonical engine
        // interns the same NNF leaves in the same syntactic order, so
        // predicate ids stay aligned across engines, which the
        // cross-engine Fig. 3 sweep relies on.
        let nnf = transform::eliminate_not(expr);
        let dnf = transform::to_dnf(&nnf, DNF_LIMIT)?;
        for conjunct in dnf.conjuncts() {
            if conjunct.len() > MAX_CONJUNCT_WIDTH {
                return Err(SubscribeError::ConjunctTooWide {
                    width: conjunct.len(),
                });
            }
        }

        let mut acquired = Vec::with_capacity(nnf.predicate_count());
        nnf.for_each_predicate(&mut |p| {
            let slot = self.index.intern_attr(p.attr());
            let (id, fresh) = self.interner.intern(slot, p);
            if fresh {
                self.index.insert(id, p);
            }
            acquired.push(id);
        });

        let orig_u32 = match self.free_origs.pop() {
            Some(free) => free,
            None => {
                let next =
                    u32::try_from(self.origs.len()).expect("more than u32::MAX subscriptions");
                reserve_tight(&mut self.origs, 1);
                self.origs.push(None);
                next
            }
        };
        let mut flats = Vec::with_capacity(dnf.len());
        for conjunct in dnf.conjuncts() {
            let flat = match self.free_flats.pop() {
                Some(f) => f,
                None => {
                    let f = u32::try_from(self.cnt.len()).expect("more than u32::MAX conjunctions");
                    reserve_tight(&mut self.cnt, 1);
                    reserve_tight(&mut self.flat_orig, 1);
                    self.cnt.push(0);
                    self.flat_orig.push(DEAD_ORIG);
                    f
                }
            };
            self.cnt[flat as usize] = conjunct.len() as u8;
            self.flat_orig[flat as usize] = orig_u32;
            for pred in conjunct {
                let pid = self
                    .index
                    .attr_slot(pred.attr())
                    .and_then(|slot| self.interner.get(slot, pred))
                    .expect("conjunct predicates come from the interned NNF");
                self.assoc.add(pid, flat);
            }
            flats.push(flat);
            self.live_flats += 1;
        }
        self.origs[orig_u32 as usize] = Some(OrigMeta { flats, acquired });
        self.live_origs += 1;
        Ok(SubscriptionId::from_index(orig_u32 as usize))
    }

    fn unsubscribe(&mut self, id: SubscriptionId) -> Result<(), UnsubscribeError> {
        let slot = self
            .origs
            .get_mut(id.index())
            .ok_or(UnsubscribeError::UnknownSubscription(id))?;
        let meta = slot
            .take()
            .ok_or(UnsubscribeError::UnknownSubscription(id))?;

        // Remove this subscription's postings: each unique acquired
        // predicate's association list is filtered against the flat set.
        let mut flats_sorted = meta.flats.clone();
        flats_sorted.sort_unstable();
        let mut unique = meta.acquired.clone();
        unique.sort_unstable();
        unique.dedup();
        for pid in unique {
            self.assoc
                .remove_matching(pid, |f| flats_sorted.binary_search(f).is_ok());
        }
        for flat in meta.flats {
            self.cnt[flat as usize] = 0;
            self.flat_orig[flat as usize] = DEAD_ORIG;
            self.free_flats.push(flat);
            self.live_flats -= 1;
        }
        for pid in meta.acquired {
            if self.interner.refcount(pid) == 1 {
                // The last leaf: out of phase 1 while the record still
                // holds the constant.
                let pred = self
                    .interner
                    .predicate(pid, |slot| self.index.attr_name(slot));
                self.index.remove(pid, &pred);
            }
            self.interner.release(pid);
        }
        self.free_origs
            .push(u32::try_from(id.index()).expect("issued ids fit u32"));
        self.live_origs -= 1;
        Ok(())
    }

    /// The OR of `id`'s conjunctions, rebuilt from the association
    /// table: a conjunction holds each of the subscription's predicates
    /// whose posting list names its flat. The predicates every
    /// conjunction holds are put in front — `common and (rest₁ or …)`,
    /// which [`transform::to_dnf`] expands back into the same
    /// conjunctions — so a synopsis or a clustering placement finds the
    /// required conjunct it found on the original. When one rest is
    /// empty the OR is true and `common` alone is the expression.
    fn expression(&self, id: SubscriptionId) -> Option<Expr> {
        let meta = self.origs.get(id.index())?.as_ref()?;
        // Flat slot → its position in `meta.flats`.
        let mut position: Vec<(u32, usize)> = meta
            .flats
            .iter()
            .enumerate()
            .map(|(at, &flat)| (flat, at))
            .collect();
        position.sort_unstable();
        // Filled in the NNF leaf order the predicates were acquired in,
        // so the first required equality stays first. A conjunction
        // holds at most `MAX_CONJUNCT_WIDTH` predicates, which bounds
        // each `contains`.
        let mut members: Vec<Vec<PredicateId>> = vec![Vec::new(); meta.flats.len()];
        let mut shared = Vec::new();
        for &pid in &meta.acquired {
            let mut holders = 0;
            for flat in self.assoc.get(pid) {
                if let Ok(at) = position.binary_search_by_key(flat, |&(f, _)| f) {
                    let member = &mut members[position[at].1];
                    if !member.contains(&pid) {
                        member.push(pid);
                        holders += 1;
                    }
                }
            }
            if holders == meta.flats.len() {
                shared.push(pid);
            }
        }
        let pred = |pid: PredicateId| {
            Expr::pred(
                self.interner
                    .predicate(pid, |slot| self.index.attr_name(slot)),
            )
        };
        let rests: Vec<Vec<PredicateId>> = members
            .into_iter()
            .map(|m| m.into_iter().filter(|p| !shared.contains(p)).collect())
            .collect();
        let mut conjuncts: Vec<Expr> = shared.iter().map(|&pid| pred(pid)).collect();
        if !rests.iter().any(Vec::is_empty) {
            conjuncts.push(Expr::or(
                rests
                    .into_iter()
                    .map(|rest| Expr::and(rest.into_iter().map(pred).collect()))
                    .collect(),
            ));
        }
        Some(Expr::and(conjuncts))
    }

    fn phase1(&self, event: &Event, out: &mut FulfilledSet) {
        out.begin(self.interner.universe());
        self.index.for_each_match(event, |id| out.insert(id));
    }

    /// Phase 2 of the classic counting algorithm: increment hit
    /// counters, then scan **every** flat conjunction.
    ///
    /// The hit counters and the matched-original stamps live in the
    /// caller's `scratch`; both are restored to their between-events
    /// state (all hit counters zero) before returning.
    fn phase2_counting(
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
        let gen = scratch.begin_stamps(self.origs.len());
        scratch.ensure_hit(self.cnt.len());

        for &pid in fulfilled.ids() {
            for &flat in self.assoc.get(pid) {
                scratch.hit[flat as usize] += 1;
                stats.increments += 1;
            }
        }

        // "The subscription matching step works on a multiple of the
        // number of original registered subscriptions" (§2.2): the scan
        // covers every flat slot, live or not.
        for flat in 0..self.cnt.len() {
            stats.comparisons += 1;
            let h = scratch.hit[flat];
            if h != 0 {
                if h == self.cnt[flat] {
                    let orig = self.flat_orig[flat];
                    let stamp = &mut scratch.stamps[orig as usize];
                    if *stamp != gen {
                        *stamp = gen;
                        matched.push(SubscriptionId::from_index(orig as usize));
                    }
                }
                scratch.hit[flat] = 0;
            }
        }
        stats.matched = matched.len();
        stats
    }

    /// Phase 2 of the paper's counting variant: only candidate
    /// conjunctions (those with at least one hit) are compared.
    fn phase2_variant(
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
        let gen = scratch.begin_stamps(self.origs.len());
        scratch.ensure_hit(self.cnt.len());

        let mut candidates = std::mem::take(&mut scratch.candidates);
        candidates.clear();
        for &pid in fulfilled.ids() {
            for &flat in self.assoc.get(pid) {
                let h = &mut scratch.hit[flat as usize];
                if *h == 0 {
                    candidates.push(flat);
                }
                *h += 1;
                stats.increments += 1;
            }
        }
        stats.candidates = candidates.len();

        for &flat in &candidates {
            stats.comparisons += 1;
            if scratch.hit[flat as usize] == self.cnt[flat as usize] {
                let orig = self.flat_orig[flat as usize];
                let stamp = &mut scratch.stamps[orig as usize];
                if *stamp != gen {
                    *stamp = gen;
                    matched.push(SubscriptionId::from_index(orig as usize));
                }
            }
            scratch.hit[flat as usize] = 0;
        }
        scratch.candidates = candidates;
        stats.matched = matched.len();
        stats
    }

    fn memory_usage(&self) -> MemoryUsage {
        let unsub: usize = self
            .origs
            .iter()
            .flatten()
            .map(|m| m.flats.capacity() * 4 + m.acquired.capacity() * 4)
            .sum::<usize>()
            + self.origs.capacity() * std::mem::size_of::<Option<OrigMeta>>()
            + self.free_origs.capacity() * 4;
        MemoryUsage {
            predicates: self.interner.heap_bytes(),
            phase1_index: self.index.heap_bytes(),
            association: self.assoc.heap_bytes(),
            locations: self.flat_orig.capacity() * 4 + self.free_flats.capacity() * 4,
            trees: 0,
            // Count vector plus the per-matcher hit vector. The hit
            // vector lives in `MatchScratch` since the shared-read
            // redesign, but it is still a per-matcher requirement sized
            // to the flat-slot space, so the paper-faithful phase-2
            // accounting keeps charging it here.
            vectors: self.cnt.capacity() + self.cnt.len(),
            unsub_support: unsub,
            // Per-event scratch is caller-owned now
            // (`MatchScratch::heap_bytes`); the engine holds none.
            scratch: 0,
        }
    }

    /// Number of flat conjunctions currently registered — the "multiple
    /// of the number of original subscriptions" the paper talks about.
    fn flat_count(&self) -> usize {
        self.live_flats
    }
}

macro_rules! counting_engine {
    ($(#[$doc:meta])* $name:ident, $kind:expr, $phase2:ident) => {
        $(#[$doc])*
        #[derive(Debug)]
        pub struct $name {
            tables: CountingTables,
        }

        impl Default for $name {
            fn default() -> Self {
                Self::new()
            }
        }

        impl $name {
            /// Creates an empty engine.
            pub fn new() -> Self {
                $name {
                    tables: CountingTables::new(),
                }
            }

            /// Number of registered flat (DNF-transformed)
            /// conjunctions — the engine's true problem size.
            pub fn flat_count(&self) -> usize {
                self.tables.flat_count()
            }

            /// Total entries in the predicate→conjunction association
            /// table — one per predicate per flat conjunction, the
            /// post-transformation multiple the paper's §2.2 predicts.
            pub fn association_postings(&self) -> usize {
                self.tables.assoc.posting_count()
            }
        }

        impl FilterEngine for $name {
            fn kind(&self) -> EngineKind {
                $kind
            }

            fn subscribe(&mut self, expr: &Expr) -> Result<SubscriptionId, SubscribeError> {
                self.tables.subscribe(expr)
            }

            fn unsubscribe(&mut self, id: SubscriptionId) -> Result<(), UnsubscribeError> {
                self.tables.unsubscribe(id)
            }

            fn expression(&self, id: SubscriptionId) -> Option<Expr> {
                self.tables.expression(id)
            }

            fn phase1(&self, event: &Event, out: &mut FulfilledSet) {
                self.tables.phase1(event, out);
            }

            fn phase2(
                &self,
                fulfilled: &FulfilledSet,
                scratch: &mut MatchScratch,
                matched: &mut Vec<SubscriptionId>,
            ) -> MatchStats {
                self.tables.$phase2(fulfilled, scratch, matched)
            }

            fn subscription_count(&self) -> usize {
                self.tables.live_origs
            }

            fn subscription_id_bound(&self) -> usize {
                self.tables.origs.len()
            }

            fn registered_units(&self) -> usize {
                self.tables.flat_count()
            }

            fn unit_slot_bound(&self) -> usize {
                self.tables.cnt.len()
            }

            fn predicate_count(&self) -> usize {
                self.tables.interner.len()
            }

            fn predicate_universe(&self) -> usize {
                self.tables.interner.universe()
            }

            fn memory_usage(&self) -> MemoryUsage {
                self.tables.memory_usage()
            }
        }
    };
}

counting_engine!(
    /// The classic counting algorithm (Yan & García-Molina 1994;
    /// Pereira et al. 2000) over DNF-transformed subscriptions: phase 2
    /// compares the hit counter of **every** registered conjunction
    /// against its predicate count, so matching time grows linearly
    /// with the transformed corpus.
    ///
    /// # Examples
    ///
    /// ```
    /// use boolmatch_core::{CountingEngine, FilterEngine, Matcher};
    /// use boolmatch_expr::Expr;
    /// use boolmatch_types::Event;
    ///
    /// let mut engine = Matcher::new(CountingEngine::new());
    /// let id = engine.subscribe(&Expr::parse("(a = 1 or b = 2) and c = 3")?)?;
    /// // Two conjunctions were registered for one subscription:
    /// assert_eq!(engine.flat_count(), 2);
    /// let ev = Event::builder().attr("b", 2_i64).attr("c", 3_i64).build();
    /// assert_eq!(engine.match_event(&ev).matched, vec![id]);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    CountingEngine,
    EngineKind::Counting,
    phase2_counting
);

counting_engine!(
    /// The paper's improved counting baseline (§3.3): identical tables
    /// to [`CountingEngine`], but phase 2 records candidate
    /// conjunctions while incrementing and compares only those, making
    /// its cost follow the number of fulfilled predicates instead of
    /// the total (transformed) subscription count.
    ///
    /// # Examples
    ///
    /// ```
    /// use boolmatch_core::{CountingVariantEngine, FilterEngine, Matcher};
    /// use boolmatch_expr::Expr;
    /// use boolmatch_types::Event;
    ///
    /// let mut engine = Matcher::new(CountingVariantEngine::new());
    /// let id = engine.subscribe(&Expr::parse("x > 3 and x < 9")?)?;
    /// let ev = Event::builder().attr("x", 5_i64).build();
    /// let result = engine.match_event(&ev);
    /// assert_eq!(result.matched, vec![id]);
    /// // Only the one candidate conjunction was compared:
    /// assert_eq!(result.stats.comparisons, 1);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    CountingVariantEngine,
    EngineKind::CountingVariant,
    phase2_variant
);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::assert_batch_equals_per_event;
    use crate::{BatchScratch, Matcher};
    use std::sync::Arc;

    fn engines() -> (Matcher<CountingEngine>, Matcher<CountingVariantEngine>) {
        (
            Matcher::new(CountingEngine::new()),
            Matcher::new(CountingVariantEngine::new()),
        )
    }

    fn ev(pairs: &[(&str, i64)]) -> Event {
        Event::from_pairs(pairs.iter().map(|(n, v)| (*n, *v)))
    }

    #[test]
    fn fig1_expands_to_nine_conjunctions() {
        let (mut c, mut v) = engines();
        let expr =
            Expr::parse("(a > 10 or a <= 5 or b = 1) and (c <= 20 or c = 30 or d = 5)").unwrap();
        c.subscribe(&expr).unwrap();
        v.subscribe(&expr).unwrap();
        assert_eq!(c.flat_count(), 9);
        assert_eq!(v.flat_count(), 9);
        assert_eq!(c.subscription_count(), 1);
    }

    #[test]
    fn both_variants_match_like_direct_evaluation() {
        let exprs = [
            "(a = 1 or b = 2) and c = 3",
            "a = 1 and b = 2",
            "a = 1 or d = 4",
            "not (a = 1) and c = 3",
        ];
        let (mut c, mut v) = engines();
        let parsed: Vec<Expr> = exprs.iter().map(|s| Expr::parse(s).unwrap()).collect();
        for e in &parsed {
            c.subscribe(e).unwrap();
            v.subscribe(e).unwrap();
        }
        let events = [
            ev(&[("a", 1), ("c", 3)]),
            ev(&[("b", 2), ("c", 3)]),
            ev(&[("a", 1), ("b", 2)]),
            ev(&[("a", 2), ("c", 3)]),
            ev(&[("d", 4)]),
            ev(&[]),
        ];
        for event in &events {
            let mut want: Vec<usize> = Vec::new();
            for (i, e) in parsed.iter().enumerate() {
                if e.eval_event(event) {
                    want.push(i);
                }
            }
            let mut got_c: Vec<usize> = c
                .match_event(event)
                .matched
                .iter()
                .map(|s| s.index())
                .collect();
            let mut got_v: Vec<usize> = v
                .match_event(event)
                .matched
                .iter()
                .map(|s| s.index())
                .collect();
            got_c.sort();
            got_v.sort();
            assert_eq!(got_c, want, "counting on {event}");
            assert_eq!(got_v, want, "variant on {event}");
        }
    }

    #[test]
    fn counting_scans_everything_variant_does_not() {
        let (mut c, mut v) = engines();
        for i in 0..50 {
            let s = format!("(x{i} = 1 or y{i} = 2) and z{i} = 3");
            let e = Expr::parse(&s).unwrap();
            c.subscribe(&e).unwrap();
            v.subscribe(&e).unwrap();
        }
        let event = ev(&[("x0", 1), ("z0", 3)]);
        let rc = c.match_event(&event);
        let rv = v.match_event(&event);
        assert_eq!(rc.matched, rv.matched);
        // Classic scans all 100 flat conjunctions; variant only the
        // candidates (2 conjunctions of subscription 0).
        assert_eq!(rc.stats.comparisons, 100);
        assert_eq!(rv.stats.comparisons, 2);
        assert_eq!(rv.stats.candidates, 2);
        // Both did identical increment work.
        assert_eq!(rc.stats.increments, rv.stats.increments);
    }

    #[test]
    fn redundant_increments_after_transformation() {
        // One subscription, and-of-or-pairs with 3 groups -> 8
        // conjunctions; each fulfilled predicate sits in 4 of them.
        let (mut c, _) = engines();
        c.subscribe(
            &Expr::parse("(a = 1 or a = 2) and (b = 1 or b = 2) and (c = 1 or c = 2)").unwrap(),
        )
        .unwrap();
        assert_eq!(c.flat_count(), 8);
        let r = c.match_event(&ev(&[("a", 1), ("b", 1), ("c", 1)]));
        // 3 fulfilled predicates x 4 conjunctions each = 12 increments —
        // the paper's "redundant computations" (§2.2). The non-canonical
        // engine does 3 association lookups for the same event.
        assert_eq!(r.stats.fulfilled, 3);
        assert_eq!(r.stats.increments, 12);
        assert_eq!(r.matched.len(), 1);
    }

    #[test]
    fn dnf_limit_is_enforced() {
        let mut c = Matcher::new(CountingEngine::new());
        // 17 OR-pairs: 2^17 = 131 072 conjunctions > 65 536.
        let text = (0..17)
            .map(|i| format!("(a{i} = 1 or a{i} = 2)"))
            .collect::<Vec<_>>()
            .join(" and ");
        let expr = Expr::parse(&text).unwrap();
        assert!(matches!(
            c.subscribe(&expr),
            Err(SubscribeError::DnfTooLarge {
                estimate: 131_072,
                limit: DNF_LIMIT
            })
        ));
        // Nothing leaked.
        assert_eq!(c.subscription_count(), 0);
        assert_eq!(c.predicate_count(), 0);
        assert_eq!(c.flat_count(), 0);
    }

    #[test]
    fn wide_conjunct_is_rejected() {
        let mut c = CountingEngine::new();
        let wide = Expr::and(
            (0..300)
                .map(|i| Expr::parse(&format!("a{i} = 1")).unwrap())
                .collect(),
        );
        assert!(matches!(
            c.subscribe(&wide),
            Err(SubscribeError::ConjunctTooWide { width: 300 })
        ));
        assert_eq!(c.predicate_count(), 0);
    }

    #[test]
    fn the_expression_given_back_puts_the_shared_predicates_first() {
        for (text, back) in [
            (
                "g3 = 5 and (x3 > 990000 or x3 <= 1200)",
                "g3 = 5 and (x3 > 990000 or x3 <= 1200)",
            ),
            ("(a = 1 or b = 2) and c = 3", "c = 3 and (a = 1 or b = 2)"),
            ("a = 1 or b = 2", "a = 1 or b = 2"),
            ("not (a = 1 and b = 2)", "a != 1 or b != 2"),
            // An empty rest makes the OR true: `a = 1` alone.
            ("a = 1 or (a = 1 and b = 2)", "a = 1"),
        ] {
            let mut engine = CountingEngine::new();
            let id = engine.subscribe(&Expr::parse(text).unwrap()).unwrap();
            assert_eq!(engine.expression(id).unwrap().to_string(), back, "{text}");
        }
    }

    #[test]
    fn unsubscribe_cleans_everything_and_reuses_flats() {
        let (mut c, _) = engines();
        let e1 = Expr::parse("(a = 1 or b = 2) and c = 3").unwrap();
        let e2 = Expr::parse("d = 4 and e = 5").unwrap();
        let id1 = c.subscribe(&e1).unwrap();
        let _id2 = c.subscribe(&e2).unwrap();
        assert_eq!(c.flat_count(), 3);

        c.unsubscribe(id1).unwrap();
        assert_eq!(c.flat_count(), 1);
        assert_eq!(c.subscription_count(), 1);
        assert_eq!(c.predicate_count(), 2);
        assert!(c.match_event(&ev(&[("a", 1), ("c", 3)])).matched.is_empty());

        // Freed flat slots are recycled by the next subscribe.
        let vectors_before = c.memory_usage().vectors;
        c.subscribe(&e1).unwrap();
        assert_eq!(c.memory_usage().vectors, vectors_before);
    }

    #[test]
    fn an_unsubscribed_id_is_reissued_and_matches_only_its_new_expression() {
        let engines: [Box<dyn FilterEngine>; 2] = [
            Box::new(CountingEngine::new()),
            Box::new(CountingVariantEngine::new()),
        ];
        for mut engine in engines {
            let old = engine
                .subscribe(&Expr::parse("(a = 1 or b = 2) and c = 3").unwrap())
                .unwrap();
            let keeper = engine.subscribe(&Expr::parse("e = 5").unwrap()).unwrap();
            engine.unsubscribe(old).unwrap();
            let reissued = engine.subscribe(&Expr::parse("d = 4").unwrap()).unwrap();
            assert_eq!(reissued, old, "the freed slot goes to the next subscribe");
            let mut scratch = MatchScratch::new();
            let r = engine.match_event(&ev(&[("a", 1), ("b", 2), ("c", 3)]), &mut scratch);
            assert!(r.matched.is_empty(), "{:?}", engine.kind());
            let r = engine.match_event(&ev(&[("d", 4), ("e", 5)]), &mut scratch);
            let mut got = r.matched;
            got.sort();
            assert_eq!(got, [reissued, keeper], "{:?}", engine.kind());
            // A churning slot keeps every table at the peak live count.
            engine.unsubscribe(reissued).unwrap();
            let per_sub = |m: MemoryUsage| (m.locations, m.vectors, m.unsub_support);
            let bytes = per_sub(engine.memory_usage());
            for i in 0..100 {
                let id = engine
                    .subscribe(&Expr::parse(&format!("x = {i} or y = {i}")).unwrap())
                    .unwrap();
                assert_eq!(id, old);
                engine.unsubscribe(id).unwrap();
            }
            assert_eq!(engine.subscription_id_bound(), 2);
            assert_eq!(per_sub(engine.memory_usage()), bytes, "{:?}", engine.kind());
        }
    }

    #[test]
    fn duplicated_conjunct_predicates_not_double_counted() {
        // (a=1 or a=1) and b=2 -> conjuncts dedup inside to_dnf; a flat
        // conjunct never counts one predicate twice, so hit == cnt works.
        let (mut c, mut v) = engines();
        let e = Expr::parse("(a = 1 or a = 1) and b = 2").unwrap();
        let ic = c.subscribe(&e).unwrap();
        let iv = v.subscribe(&e).unwrap();
        let event = ev(&[("a", 1), ("b", 2)]);
        assert_eq!(c.match_event(&event).matched, vec![ic]);
        assert_eq!(v.match_event(&event).matched, vec![iv]);
    }

    #[test]
    fn matched_originals_are_deduplicated() {
        // An event fulfilling both or-branches completes 2 conjunctions
        // of the same original subscription; it must be reported once.
        let (mut c, mut v) = engines();
        let e = Expr::parse("(a = 1 or b = 2) and c = 3").unwrap();
        c.subscribe(&e).unwrap();
        v.subscribe(&e).unwrap();
        let event = ev(&[("a", 1), ("b", 2), ("c", 3)]);
        assert_eq!(c.match_event(&event).matched.len(), 1);
        assert_eq!(v.match_event(&event).matched.len(), 1);
    }

    #[test]
    fn memory_usage_buckets_are_populated() {
        let (mut c, _) = engines();
        for i in 0..50 {
            let s = format!("(x{i} = 1 or y{i} = 2) and (z{i} = 3 or w{i} = 4)");
            c.subscribe(&Expr::parse(&s).unwrap()).unwrap();
        }
        let m = c.memory_usage();
        assert!(m.vectors > 0, "hit/cnt vectors");
        assert!(m.association > 0);
        assert!(m.locations > 0);
        assert!(m.unsub_support > 0);
        assert_eq!(m.trees, 0);
        assert!(m.phase2_bytes() < m.total());
    }

    #[test]
    fn phase2_with_synthetic_fulfilled_set_matches_phase1_path() {
        let (mut c, _) = engines();
        let id = c
            .subscribe(&Expr::parse("(a = 1 or b = 2) and c = 3").unwrap())
            .unwrap();
        let event = ev(&[("b", 2), ("c", 3)]);
        let full = c.match_event(&event);
        assert_eq!(full.matched, vec![id]);

        let mut fulfilled = FulfilledSet::new();
        c.phase1(&event, &mut fulfilled);
        let mut matched = Vec::new();
        let stats = c.phase2(&fulfilled, &mut matched);
        assert_eq!(matched, full.matched);
        assert_eq!(stats, full.stats);
    }

    #[test]
    fn batch_matches_like_scalar_for_both_engines() {
        let (mut c, mut v) = engines();
        for i in 0..40 {
            let s = format!("(g{} = 1 or h{} = 2) and k{} = 3", i % 7, i % 5, i % 3);
            c.subscribe(&Expr::parse(&s).unwrap()).unwrap();
            v.subscribe(&Expr::parse(&s).unwrap()).unwrap();
        }
        for n in [1usize, 5, 70] {
            let events: Vec<Arc<Event>> = (0..n)
                .map(|i| {
                    Arc::new(ev(&[
                        ("g0", if i % 2 == 0 { 1 } else { 9 }),
                        ("h1", 2),
                        ("k0", 3),
                        (if i % 3 == 0 { "k1" } else { "k2" }, 3),
                    ]))
                })
                .collect();
            assert_batch_equals_per_event(c.engine(), &events, "counting");
            assert_batch_equals_per_event(v.engine(), &events, "variant");
        }
    }

    #[test]
    fn batch_skip_mask_excludes_events() {
        let (mut c, mut v) = engines();
        let e = Expr::parse("a = 1 and b = 2").unwrap();
        c.subscribe(&e).unwrap();
        v.subscribe(&e).unwrap();
        let events: Vec<Arc<Event>> = (0..6)
            .map(|_| Arc::new(ev(&[("a", 1), ("b", 2)])))
            .collect();
        let skip = [false, true, false, true, true, false];
        for engine in [
            c.engine() as &dyn FilterEngine,
            v.engine() as &dyn FilterEngine,
        ] {
            let mut batch = BatchScratch::new();
            let stats = engine.match_batch(&events, &skip, &mut batch);
            assert_eq!(stats.batch_events, 3);
            assert_eq!(stats.matched, 3);
            for (e, &skipped) in skip.iter().enumerate() {
                assert_eq!(batch.matched(e).is_empty(), skipped, "event {e}");
            }
        }
    }

    #[test]
    fn batch_dedups_matched_originals_per_event() {
        // Both or-branches complete for the same original — each event
        // must report it once, and events must not bleed into each other.
        let (mut c, mut v) = engines();
        let e = Expr::parse("(a = 1 or b = 2) and c = 3").unwrap();
        c.subscribe(&e).unwrap();
        v.subscribe(&e).unwrap();
        let events: Vec<Arc<Event>> = (0..10)
            .map(|i| {
                Arc::new(if i % 2 == 0 {
                    ev(&[("a", 1), ("b", 2), ("c", 3)])
                } else {
                    ev(&[("a", 1)])
                })
            })
            .collect();
        for engine in [
            c.engine() as &dyn FilterEngine,
            v.engine() as &dyn FilterEngine,
        ] {
            let mut batch = BatchScratch::new();
            engine.match_batch(&events, &[], &mut batch);
            for e in 0..events.len() {
                assert_eq!(batch.matched(e).len(), usize::from(e % 2 == 0), "event {e}");
            }
        }
    }

    #[test]
    fn hit_vector_is_clean_between_events() {
        let (mut c, mut v) = engines();
        let e = Expr::parse("a = 1 and b = 2").unwrap();
        c.subscribe(&e).unwrap();
        v.subscribe(&e).unwrap();
        // Partially-fulfilling event leaves hit = 1 unless cleared.
        let partial = ev(&[("a", 1)]);
        assert!(c.match_event(&partial).matched.is_empty());
        assert!(v.match_event(&partial).matched.is_empty());
        // A second partial event must not complete the counter.
        let other = ev(&[("b", 2)]);
        assert!(c.match_event(&other).matched.is_empty());
        assert!(v.match_event(&other).matched.is_empty());
        // Sanity: the full event still matches.
        assert_eq!(c.match_event(&ev(&[("a", 1), ("b", 2)])).matched.len(), 1);
    }
}
