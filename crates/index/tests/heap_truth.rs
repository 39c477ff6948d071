//! Heap truth for the phase-1 index: a counting global allocator checks
//! that `PredicateIndex::heap_bytes` charges at least what the allocator
//! holds (and at most 5 % more), after a build and after churn, and that
//! matching allocates nothing. Range predicates live in sorted columns
//! charged at their capacity, so the charge is exact but for the
//! attribute interner's small overcharge. Counts are per thread, so the
//! harness's parallel tests cannot pollute each other's figures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use boolmatch_expr::{CompareOp, Predicate};
use boolmatch_index::PredicateIndex;
use boolmatch_types::Event;

thread_local! {
    /// This thread's live heap bytes (by `Layout` size) and allocations.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

fn note(bytes: isize, allocs: usize) {
    // `try_with`: a thread tearing down its locals may still free.
    let _ = LIVE.try_with(|c| c.set(c.get() + bytes));
    let _ = ALLOCS.try_with(|c| c.set(c.get() + allocs));
}

struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s allocations satisfy `GlobalAlloc`'s contract;
// the bookkeeping beside them allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as isize, 1);
        // SAFETY: forwarded unchanged; our caller upholds `alloc`'s
        // contract (non-zero size), which is `System`'s too.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(-(layout.size() as isize), 0);
        // SAFETY: `ptr` came from `System` via `alloc` above (the
        // default `realloc` goes through `alloc` and `dealloc` too).
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// splitmix64 (Steele, Lea, Flood 2014), reduced below `n`.
fn below(state: &mut u64, n: u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) % n
}

/// `count` paper-shape range predicates: `aN > hi` and `aN <= lo`
/// pairs over 32 attributes, constants in the domain's top and bottom
/// 7.5 %.
fn paper_predicates(count: usize, rng: &mut u64) -> Vec<Predicate> {
    let mut preds = Vec::with_capacity(count);
    while preds.len() < count {
        let attr = format!("a{}", below(rng, 32));
        let hi = 999_999 - below(rng, 75_000) as i64;
        preds.push(Predicate::new(&attr, CompareOp::Gt, hi));
        preds.push(Predicate::new(
            &attr,
            CompareOp::Le,
            below(rng, 75_000) as i64,
        ));
    }
    preds
}

/// An index of `count` paper-shape range predicates. Returns it with
/// the live heap its build added.
fn paper_index(count: usize, seed: u64) -> (PredicateIndex<u32>, usize) {
    let preds = paper_predicates(count, &mut { seed });
    let before = LIVE.with(Cell::get);
    let mut idx = PredicateIndex::new();
    for (id, p) in preds.iter().enumerate() {
        idx.insert(id as u32, p);
    }
    let added = LIVE.with(Cell::get) - before;
    (idx, added as usize)
}

/// Asserts `charged` is at least the allocator's `truth` and at most
/// 5 % above it.
fn assert_charged(what: &str, charged: usize, truth: usize) {
    let ratio = charged as f64 / truth as f64;
    eprintln!("{what}: {charged} B charged, {truth} B live, ×{ratio:.3}");
    assert!(
        charged >= truth,
        "{what}: charged {charged} < allocator {truth}"
    );
    assert!(
        ratio <= 1.05,
        "{what}: charged {ratio:.3} x allocator {truth}"
    );
}

#[test]
fn heap_bytes_charges_the_allocator_truth_from_above() {
    for count in [2_000, 40_000, 160_000] {
        for seed in [2005, 7] {
            let (idx, truth) = paper_index(count, seed);
            let what = format!("{count:>7} predicates, seed {seed:>4}");
            assert_charged(&what, idx.heap_bytes(), truth);
        }
    }
}

#[test]
fn heap_bytes_follow_churn() {
    // 40 000 predicates; half of them, picked at random, are removed,
    // then as many fresh ones take their ids.
    const LIVE_COUNT: usize = 40_000;
    let mut rng = 2005;
    let preds = paper_predicates(LIVE_COUNT + LIVE_COUNT / 2, &mut rng);
    let mut ids: Vec<usize> = (0..LIVE_COUNT).collect();
    for i in (1..ids.len()).rev() {
        ids.swap(i, below(&mut rng, i as u64 + 1) as usize);
    }
    let events = paper_events(7);
    let mut held: Vec<&Predicate> = preds[..LIVE_COUNT].iter().collect();
    let before = LIVE.with(Cell::get);
    let mut idx = PredicateIndex::new();
    for (id, p) in held.iter().enumerate() {
        idx.insert(id as u32, p);
    }
    let gone = &ids[..LIVE_COUNT / 2];
    for &id in gone {
        assert!(idx.remove(id as u32, held[id]));
    }
    for (&id, fresh) in gone.iter().zip(&preds[LIVE_COUNT..]) {
        idx.insert(id as u32, fresh);
        held[id] = fresh;
    }
    let truth = (LIVE.with(Cell::get) - before) as usize;
    assert_eq!(idx.predicate_count(), LIVE_COUNT);
    assert_charged("40 000 predicates after churn", idx.heap_bytes(), truth);
    let (allocs, fulfilled) = allocs_matching(&idx, &events);
    assert_eq!(allocs, 0, "allocations across 64 paper events after churn");
    assert!(fulfilled > 0);
}

/// Allocations made while matching `events[1..]` once `events[0]` has
/// warmed up, and the fulfilled predicates counted over all of them.
fn allocs_matching(idx: &PredicateIndex<u32>, events: &[Event]) -> (usize, usize) {
    let mut fulfilled = 0;
    idx.for_each_match(&events[0], |_| fulfilled += 1);
    let start = ALLOCS.with(Cell::get);
    for e in &events[1..] {
        idx.for_each_match(e, |_| fulfilled += 1);
    }
    (ALLOCS.with(Cell::get) - start, fulfilled)
}

/// 65 paper events with 32 `Int` attributes each.
fn paper_events(seed: u64) -> Vec<Event> {
    let mut rng = seed;
    (0..65)
        .map(|_| {
            Event::from_pairs((0..32).map(|a| (format!("a{a}"), below(&mut rng, 1_000_000) as i64)))
        })
        .collect()
}

#[test]
fn matching_allocates_nothing() {
    let (idx, _) = paper_index(40_000, 2005);
    let (allocs, fulfilled) = allocs_matching(&idx, &paper_events(7));
    assert_eq!(allocs, 0, "allocations across 64 paper events");
    assert!(fulfilled > 0);

    // String events against `>=` and `<` string columns beside a float
    // column, which string events must skip.
    let mut idx = PredicateIndex::new();
    for (id, c) in ["b", "m", "mz", "t"].into_iter().enumerate() {
        idx.insert(id as u32, &Predicate::new("s", CompareOp::Ge, c));
        idx.insert(id as u32 + 4, &Predicate::new("s", CompareOp::Lt, c));
    }
    idx.insert(8, &Predicate::new("s", CompareOp::Ge, 1.5));
    let events: Vec<Event> = ["", "a", "m", "n", "zz", "m"]
        .into_iter()
        .map(|v| Event::builder().attr("s", v).build())
        .collect();
    let (allocs, fulfilled) = allocs_matching(&idx, &events);
    assert_eq!(allocs, 0, "allocations across string range scans");
    // Each string constant fulfils one of its `>=` and `<` predicates.
    assert_eq!(fulfilled, 4 * events.len());
}
