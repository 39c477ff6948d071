//! Worker and scratch pooling.
//!
//! The broker matches every event with one sequential shard walk on the
//! publishing thread and pools nothing for it; what lives here serves
//! the delivery tier and the standalone parallel walk:
//!
//! * [`WorkerPool`] — a persistent pool of worker threads executing
//!   submitted jobs. The broker owns one for its delivery tier (drainer
//!   jobs), built lazily on the first consumer subscription.
//! * [`ScratchPool`] — a non-blocking pool of warm [`MatchScratch`]es.
//!   Checkout applies the hygiene pair exactly once —
//!   [`MatchScratch::reset`] (clear state, keep capacity) and
//!   [`MatchScratch::ensure_capacity`] (grow to the engine at hand) — so
//!   in steady state a checked-out scratch allocates nothing. Checkout
//!   never blocks: slots are probed with `try_lock`, and when none
//!   holds a parked scratch a fresh one is built instead of waiting
//!   (counted by [`ScratchPool::fresh`]).
//! * [`FanOut`] — a one-shot scatter/gather rendezvous: `N` indexed
//!   slots filled by workers, one caller waiting for all of them. Slot
//!   completion is panic-safe (a guard completes its slot on drop even
//!   if the job unwinds), so a crashed worker can never wedge or
//!   reorder the merge.
//!
//! [`crate::ShardedEngine::match_event_parallel`] fans one event out
//! over scoped threads that check their scratches out of a
//! [`ScratchPool`], running the same per-shard step as the sequential
//! walk ([`crate::Shard::match_event`]; a remote shard checks a scratch
//! out only once its synopsis has admitted the event). `benchmark/` times
//! that walk against the sequential one
//! (`core.shard.parallel_ns_per_event`) and one [`WorkerPool`] +
//! [`FanOut`] hand-off (`core.pool.worker_roundtrip_ns`): the rows that
//! would have to change before a broker-level fan-out is worth having
//! again.

use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use std::thread::JoinHandle;

use parking_lot::Mutex;

use crate::routing::lock_classes;

use crate::engine::FilterEngine;
use crate::MatchScratch;

// ---------------------------------------------------------------------------
// ScratchPool

/// A non-blocking pool of reusable [`MatchScratch`]es shared by fan-out
/// workers.
///
/// Each checkout probes the fixed slot array with `try_lock`: a parked
/// warm scratch is taken if one is available, otherwise a fresh one is
/// built — a worker never blocks on another worker's checkout. Returned
/// scratches re-fill empty slots (beyond-capacity returns are simply
/// dropped), so the pool holds at most `slots` scratches and, once it
/// holds as many warm ones as are ever out at the same time, stops
/// allocating entirely — [`ScratchPool::fresh`] and
/// [`ScratchPool::heap_bytes`] are the steady-state probes the tests
/// use.
///
/// # Examples
///
/// ```
/// use boolmatch_core::{EngineKind, ScratchPool};
///
/// let engine = EngineKind::NonCanonical.build();
/// let pool = ScratchPool::new(2);
/// {
///     let _scratch = pool.checkout(&engine); // hygiene applied once here
/// } // returned to the pool on drop
/// assert_eq!(pool.pooled(), 1);
/// assert_eq!(pool.fresh(), 1); // the empty pool had to build it
/// ```
#[derive(Debug)]
pub struct ScratchPool {
    slots: Vec<Mutex<Option<MatchScratch>>>,
    /// Checkouts that found no parked scratch and built one.
    fresh: AtomicU64,
}

impl ScratchPool {
    /// A pool holding at most `slots` warm scratches (at least one). A
    /// parked scratch keeps whatever high-water capacity it grew to.
    pub fn new(slots: usize) -> Self {
        let slots: Vec<Mutex<Option<MatchScratch>>> =
            (0..slots.max(1)).map(|_| Mutex::new(None)).collect();
        for slot in &slots {
            slot.set_class(lock_classes::POOL);
        }
        ScratchPool {
            slots,
            fresh: AtomicU64::new(0),
        }
    }

    /// Maximum number of scratches the pool retains.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Number of scratches currently parked in the pool (skipping slots
    /// another thread holds locked at probe time).
    pub fn pooled(&self) -> usize {
        self.slots
            .iter()
            .filter_map(Mutex::try_lock)
            .filter(|slot| slot.is_some())
            .count()
    }

    /// Total heap bytes held by the parked scratches — the steady-state
    /// probe: once the pool is warm, repeated checkouts against the
    /// same engines must leave this value unchanged.
    pub fn heap_bytes(&self) -> usize {
        self.slots
            .iter()
            .filter_map(Mutex::try_lock)
            .filter_map(|slot| slot.as_ref().map(MatchScratch::heap_bytes))
            .sum()
    }

    /// Checkouts that found no parked scratch and built a fresh one —
    /// the "steady state allocates nothing" gauge: on a pool sized to
    /// the scratches out at the same time it stops moving after
    /// warm-up.
    pub fn fresh(&self) -> u64 {
        // ordering: a monotonic tally read for reporting only.
        self.fresh.load(Ordering::Relaxed)
    }

    // lint: hot-path — scratch checkout/return runs once per admitted
    // shard of a parallel walk; pool slots are probed try-lock-only so
    // a worker never blocks here.

    /// Checks a scratch out for matching against `engine`: pops a warm
    /// scratch from the first free occupied slot (or builds a fresh
    /// one), then applies the hygiene pair — [`MatchScratch::reset`] +
    /// [`MatchScratch::ensure_capacity`] — exactly once.
    pub fn checkout(&self, engine: &(impl FilterEngine + ?Sized)) -> PooledScratch<'_> {
        let parked = self
            .slots
            .iter()
            .filter_map(Mutex::try_lock)
            .find_map(|mut slot| slot.take());
        let mut scratch = parked.unwrap_or_else(|| {
            // ordering: a monotonic tally; nothing is published through it.
            self.fresh.fetch_add(1, Ordering::Relaxed);
            MatchScratch::default()
        });
        scratch.reset();
        scratch.ensure_capacity(engine);
        PooledScratch {
            pool: self,
            scratch: Some(scratch),
        }
    }

    /// Parks `scratch` in the first free empty slot; drops it when the
    /// pool is full or every slot is contended (never blocks).
    fn put(&self, scratch: MatchScratch) {
        for slot in &self.slots {
            if let Some(mut slot) = slot.try_lock() {
                if slot.is_none() {
                    *slot = Some(scratch);
                    return;
                }
            }
        }
    }
}

/// A checked-out [`MatchScratch`]: derefs to the scratch and returns it
/// to its [`ScratchPool`] on drop.
#[derive(Debug)]
pub struct PooledScratch<'a> {
    pool: &'a ScratchPool,
    scratch: Option<MatchScratch>,
}

// The Option is only ever None after Drop took the scratch, so the
// expects below are unreachable while a guard is usable.
impl Deref for PooledScratch<'_> {
    type Target = MatchScratch;

    fn deref(&self) -> &MatchScratch {
        // lint: allow(panic-policy, reason = "guard invariant: the scratch is Some from construction until Drop")
        self.scratch.as_ref().expect("present until drop")
    }
}

impl DerefMut for PooledScratch<'_> {
    fn deref_mut(&mut self) -> &mut MatchScratch {
        // lint: allow(panic-policy, reason = "guard invariant: the scratch is Some from construction until Drop")
        self.scratch.as_mut().expect("present until drop")
    }
}

impl Drop for PooledScratch<'_> {
    fn drop(&mut self) {
        // A guard dropped during a panic may hold a scratch abandoned
        // mid-match (e.g. hit counters half-updated — state the
        // checkout hygiene deliberately does not re-clear). Pooling it
        // would poison every later match through it; drop it instead.
        if std::thread::panicking() {
            return;
        }
        if let Some(scratch) = self.scratch.take() {
            self.pool.put(scratch);
        }
    }
}

// lint: end-hot-path

// ---------------------------------------------------------------------------
// WorkerPool

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A persistent pool of worker threads draining a shared job queue.
///
/// The pool is created once (threads park between jobs) and serves the
/// broker's delivery tier: consumer queues with undelivered events wait
/// on a ready list that at most one drainer job per pool thread
/// consumes, one queue per pop, and a publisher hands newly scheduled
/// queues over every 32 queues — no job, let alone a thread spawn, per
/// notification. Jobs must
/// be `'static` (capture `Arc`s, not borrows); for borrowed data use
/// scoped threads, as [`crate::ShardedEngine::match_event_parallel`]
/// does.
///
/// A panicking job is caught on the worker (matching `parking_lot`'s
/// no-poisoning spirit) so the thread survives to serve later jobs;
/// pair jobs with [`FanOut`] slots to keep waiters safe from lost
/// completions.
#[derive(Debug)]
pub struct WorkerPool {
    jobs: Option<mpsc::Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `threads` parked worker threads (at least one).
    pub fn new(threads: usize) -> Self {
        let (tx, rx) = mpsc::channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));
        rx.set_class(lock_classes::POOL);
        let workers = (0..threads.max(1))
            .map(|i| {
                let rx = Arc::clone(&rx);
                std::thread::Builder::new()
                    .name(format!("boolmatch-worker-{i}"))
                    .spawn(move || loop {
                        // Hold the queue lock only while dequeuing.
                        let job = rx.lock().recv();
                        match job {
                            Ok(job) => {
                                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
                            }
                            Err(_) => break, // pool dropped
                        }
                    })
                    .expect("spawning a worker thread")
            })
            .collect();
        WorkerPool {
            jobs: Some(tx),
            workers,
        }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    // lint: hot-path — submit runs on the publishing thread, at most
    // once per pool thread per ready-list hand-off.

    /// Queues `job` for execution on some worker. A job submitted to a
    /// pool torn down concurrently (sender gone or workers exited) is
    /// dropped, not run — safe for fan-out jobs, whose captured
    /// [`SlotGuard`] completes its slot as `None` on drop.
    pub fn submit(&self, job: impl FnOnce() + Send + 'static) {
        if let Some(jobs) = &self.jobs {
            let _ = jobs.send(Box::new(job));
        }
    }

    // lint: end-hot-path
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the channel lets each worker drain the queue and exit.
        drop(self.jobs.take());
        let me = std::thread::current().id();
        for worker in self.workers.drain(..) {
            if worker.thread().id() == me {
                // The pool is being dropped from inside one of its own
                // jobs (a job held the last reference to the pool's
                // owner). Joining ourselves would deadlock; detach
                // instead — this thread exits on its own once the
                // closed queue drains.
                continue;
            }
            let _ = worker.join();
        }
    }
}

// ---------------------------------------------------------------------------
// FanOut

struct FanState<T> {
    slots: Vec<Option<T>>,
    remaining: usize,
}

/// A one-shot scatter/gather rendezvous: `n` indexed slots, each
/// completed exactly once by a worker, and one caller waiting for all
/// of them.
///
/// The slot index — not completion order — decides where a result
/// lands, so the caller's merge is deterministic no matter how the
/// workers interleave (a stalled shard cannot reorder another shard's
/// result). [`SlotGuard`] completes its slot on drop even when the job
/// panics before filling it, so [`FanOut::wait`] can never hang on a
/// crashed worker; an unfilled slot surfaces as `None`.
///
/// # Examples
///
/// ```
/// use boolmatch_core::FanOut;
///
/// let run = FanOut::new(2);
/// run.slot(1).fill("right");
/// run.slot(0).fill("left");
/// assert_eq!(run.wait(), vec![Some("left"), Some("right")]);
/// ```
pub struct FanOut<T> {
    // std Mutex (not the classed shim): the guard must be handed to
    // Condvar::wait, which only std's guard type supports. The lock is
    // a leaf — complete/wait touch nothing else while holding it — so
    // it needs no lockdep class.
    state: StdMutex<FanState<T>>,
    done: Condvar,
}

impl<T> FanOut<T> {
    /// A rendezvous over `n` slots, shared between caller and workers.
    pub fn new(n: usize) -> Arc<Self> {
        Arc::new(FanOut {
            state: StdMutex::new(FanState {
                slots: (0..n).map(|_| None).collect(),
                remaining: n,
            }),
            done: Condvar::new(),
        })
    }

    /// The completion guard for slot `index`; hand it to the worker
    /// responsible for that slot.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn slot(self: &Arc<Self>, index: usize) -> SlotGuard<T> {
        assert!(index < self.lock().slots.len(), "slot index out of range");
        SlotGuard {
            run: Arc::clone(self),
            index,
            completed: false,
        }
    }

    /// Blocks until every slot has completed, then takes the results in
    /// slot order. `None` marks a slot whose worker dropped its guard
    /// without filling it (e.g. after a panic).
    pub fn wait(&self) -> Vec<Option<T>> {
        let mut state = self.lock();
        while state.remaining > 0 {
            state = self
                .done
                .wait(state)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        std::mem::take(&mut state.slots)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, FanState<T>> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn complete(&self, index: usize, value: Option<T>) {
        let mut state = self.lock();
        state.slots[index] = value;
        state.remaining -= 1;
        let all_done = state.remaining == 0;
        drop(state);
        if all_done {
            self.done.notify_all();
        }
    }
}

impl<T> std::fmt::Debug for FanOut<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FanOut")
            .field("remaining", &self.lock().remaining)
            .finish()
    }
}

/// Completion guard for one [`FanOut`] slot: [`SlotGuard::fill`] stores
/// the worker's result; dropping unfilled (panic path) completes the
/// slot as `None` so the waiter is released either way.
pub struct SlotGuard<T> {
    run: Arc<FanOut<T>>,
    index: usize,
    completed: bool,
}

impl<T> SlotGuard<T> {
    /// Completes the slot with `value`.
    pub fn fill(mut self, value: T) {
        self.completed = true;
        self.run.complete(self.index, Some(value));
    }
}

impl<T> Drop for SlotGuard<T> {
    fn drop(&mut self) {
        if !self.completed {
            self.run.complete(self.index, None);
        }
    }
}

impl<T> std::fmt::Debug for SlotGuard<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SlotGuard")
            .field("index", &self.index)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EngineKind;
    use boolmatch_expr::Expr;
    use boolmatch_types::Event;

    #[test]
    fn checkout_reuses_and_stops_allocating() {
        let mut engine = EngineKind::NonCanonical.build();
        for i in 0..50 {
            engine
                .subscribe(&Expr::parse(&format!("(a = {i} or b = 1) and c <= {i}")).unwrap())
                .unwrap();
        }
        let pool = ScratchPool::new(2);
        let event = Event::builder().attr("b", 1_i64).attr("c", 0_i64).build();

        // Warm-up: one checkout grows the scratch to the engine.
        {
            let mut scratch = pool.checkout(&engine);
            engine.match_event_into(&event, &mut scratch);
        }
        assert_eq!(pool.pooled(), 1);
        let warm = pool.heap_bytes();
        assert!(warm > 0);

        // Steady state: repeated checkouts re-use the warm scratch and
        // the pool's footprint stays bit-identical.
        for _ in 0..100 {
            let mut scratch = pool.checkout(&engine);
            let stats = engine.match_event_into(&event, &mut scratch);
            assert_eq!(stats.matched, 50);
        }
        assert_eq!(pool.pooled(), 1);
        assert_eq!(pool.heap_bytes(), warm, "steady state allocates nothing");
        assert_eq!(pool.fresh(), 1, "only the first checkout built a scratch");
    }

    #[test]
    fn concurrent_checkouts_never_block_and_pool_caps_retention() {
        let engine = EngineKind::Counting.build();
        let pool = ScratchPool::new(2);
        // Three concurrent checkouts from a 2-slot pool: the third gets
        // a fresh scratch instead of blocking.
        let a = pool.checkout(&engine);
        let b = pool.checkout(&engine);
        let c = pool.checkout(&engine);
        drop(a);
        drop(b);
        drop(c); // pool full: this one is dropped, not parked
        assert_eq!(pool.pooled(), 2);
        assert_eq!(pool.capacity(), 2);
        assert_eq!(pool.fresh(), 3, "an empty pool builds every checkout");
    }

    #[test]
    fn worker_pool_runs_jobs_and_survives_panics() {
        let pool = WorkerPool::new(2);
        assert_eq!(pool.threads(), 2);
        let run = FanOut::new(3);
        for i in 0..3 {
            let slot = run.slot(i);
            pool.submit(move || {
                if i == 1 {
                    panic!("job 1 crashes");
                }
                slot.fill(i * 10);
            });
        }
        assert_eq!(run.wait(), vec![Some(0), None, Some(20)]);

        // The pool still serves jobs after a panic.
        let again = FanOut::new(1);
        let slot = again.slot(0);
        pool.submit(move || slot.fill(7usize));
        assert_eq!(again.wait(), vec![Some(7)]);
    }

    #[test]
    fn fan_out_orders_by_slot_not_completion() {
        let run = FanOut::new(4);
        // Fill in scrambled order from scrambled threads.
        let mut handles = Vec::new();
        for (i, v) in [(3usize, 'd'), (0, 'a'), (2, 'c'), (1, 'b')] {
            let slot = run.slot(i);
            handles.push(std::thread::spawn(move || slot.fill(v)));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(run.wait(), vec![Some('a'), Some('b'), Some('c'), Some('d')]);
    }

    #[test]
    fn panicked_holder_does_not_poison_the_pool() {
        let pool = ScratchPool::new(1);
        let result = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let engine = EngineKind::Counting.build();
                    let mut held = pool.checkout(&engine);
                    // Stand-in for counters left half-updated by a panic
                    // inside phase 2 (which normally restores them
                    // before returning).
                    held.hit.push(7);
                    panic!("mid-match");
                })
                .join()
        });
        assert!(result.is_err(), "the holder panicked");
        assert_eq!(
            pool.pooled(),
            0,
            "the abandoned scratch was dropped, not re-pooled"
        );
        // The pool itself still works.
        let engine = EngineKind::Counting.build();
        drop(pool.checkout(&engine));
        assert_eq!(pool.pooled(), 1);
    }

    #[test]
    fn pool_dropped_from_its_own_worker_detaches_instead_of_deadlocking() {
        use std::sync::atomic::{AtomicBool, Ordering};

        // A job holds the last Arc to the pool (standing in for a job
        // holding the last reference to a pool-owning broker). The main
        // thread provably drops its handle first, so the pool's Drop
        // runs on the worker — which must skip joining itself.
        let pool = Arc::new(WorkerPool::new(1));
        let run = FanOut::new(1);
        let slot = run.slot(0);
        let job_pool = Arc::clone(&pool);
        let main_dropped = Arc::new(AtomicBool::new(false));
        let gate = Arc::clone(&main_dropped);
        pool.submit(move || {
            slot.fill(());
            while !gate.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            drop(job_pool); // the last handle: WorkerPool::drop runs here
        });
        assert_eq!(run.wait(), vec![Some(())]);
        drop(pool);
        main_dropped.store(true, Ordering::Release);
        // Nothing to assert beyond termination: the old self-join
        // deadlocked (panicking with EDEADLK) right here.
    }

    #[test]
    fn zero_sized_pools_clamp_to_one() {
        assert_eq!(ScratchPool::new(0).capacity(), 1);
        assert_eq!(WorkerPool::new(0).threads(), 1);
    }

    #[test]
    #[should_panic(expected = "slot index out of range")]
    fn out_of_range_slot_panics() {
        let run = FanOut::<()>::new(1);
        let _ = run.slot(1);
    }
}
