//! Worker and scratch pooling for parallel shard fan-out.
//!
//! Sharding made subscription churn cheap, but a single publish still
//! visited every shard *sequentially* — per-event latency grew with the
//! shard count instead of shrinking. This module supplies the pieces
//! that turn shard partitioning into intra-event parallelism:
//!
//! * [`WorkerPool`] — a persistent pool of worker threads executing
//!   submitted jobs. The broker owns one per sharded instance, so a
//!   publish fans its per-shard matching out **without spawning a
//!   thread per publish**.
//! * [`Pool`] — a non-blocking pool of warm scratches, used as
//!   [`ScratchPool`] (one event) and [`BatchScratchPool`] (a batch).
//!   Checkout applies the hygiene pair exactly once —
//!   [`PoolScratch::reset`] (clear state, keep capacity) and
//!   [`PoolScratch::ensure_capacity`] (grow to the engine at hand) — so
//!   in steady state a checked-out scratch allocates nothing. Checkout
//!   never blocks: slots are probed with `try_lock`, and when none
//!   holds a parked scratch a fresh one is built instead of waiting
//!   (counted by [`Pool::fresh`]).
//! * [`FanOut`] — a one-shot scatter/gather rendezvous: `N` indexed
//!   slots filled by workers, one caller waiting for all of them. Slot
//!   completion is panic-safe (a guard completes its slot on drop even
//!   if the job unwinds), so a crashed worker can never wedge or
//!   reorder the merge.
//!
//! [`crate::ShardedEngine::match_event_parallel`] composes these for
//! plain-value engines (using scoped threads, since the engine is
//! borrowed); `boolmatch-broker`'s fan-out driver composes them around
//! its per-shard locks for the publish hot path, where jobs capture
//! `Arc`s and run on the persistent pool. Both run the same per-shard
//! step, [`crate::Shard::match_event_with`], which leases only once
//! the shard's synopsis has admitted the event.

use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use std::thread::JoinHandle;

use parking_lot::Mutex;

use crate::routing::lock_classes;

use crate::engine::FilterEngine;
use crate::{BatchScratch, MatchScratch};

// ---------------------------------------------------------------------------
// Pool

/// What a [`Pool`] asks of the scratch type it parks: the hygiene pair
/// applied once per checkout, the trim applied to an over-cap return,
/// and the footprint both are judged by. Implemented by
/// [`MatchScratch`] and [`BatchScratch`] through their inherent methods
/// of the same names.
pub trait PoolScratch: Default {
    /// Clears per-use state, keeping every buffer's capacity.
    fn reset(&mut self);
    /// Grows the buffers to `engine`.
    fn ensure_capacity<E: FilterEngine + ?Sized>(&mut self, engine: &E);
    /// Releases all buffers, capacity included.
    fn trim(&mut self);
    /// Approximate heap bytes held.
    fn heap_bytes(&self) -> usize;
}

macro_rules! impl_pool_scratch {
    ($scratch:ty) => {
        impl PoolScratch for $scratch {
            fn reset(&mut self) {
                <$scratch>::reset(self);
            }
            fn ensure_capacity<E: FilterEngine + ?Sized>(&mut self, engine: &E) {
                <$scratch>::ensure_capacity(self, engine);
            }
            fn trim(&mut self) {
                <$scratch>::trim(self);
            }
            fn heap_bytes(&self) -> usize {
                <$scratch>::heap_bytes(self)
            }
        }
    };
}

impl_pool_scratch!(MatchScratch);
impl_pool_scratch!(BatchScratch);

/// A non-blocking pool of reusable scratches shared by fan-out workers.
///
/// Each checkout probes the fixed slot array with `try_lock`: a parked
/// warm scratch is taken if one is available, otherwise a fresh one is
/// built — a worker never blocks on another worker's checkout. Returned
/// scratches re-fill empty slots (beyond-capacity returns are simply
/// dropped), so the pool holds at most `slots` scratches and, once it
/// holds as many warm ones as are ever out at the same time, stops
/// allocating entirely — [`Pool::fresh`] and [`Pool::heap_bytes`] are
/// the steady-state probes the tests use.
#[derive(Debug)]
pub struct Pool<S> {
    slots: Vec<Mutex<Option<S>>>,
    /// Heap-byte cap above which a returning scratch is trimmed before
    /// parking; `usize::MAX` disables trimming.
    trim_cap: usize,
    /// Checkouts that found no parked scratch and built one.
    fresh: AtomicU64,
}

/// The pool of per-event scratches.
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
pub type ScratchPool = Pool<MatchScratch>;

/// The pool of batch scratches — the same [`Pool`], parking
/// [`BatchScratch`]es.
///
/// # Examples
///
/// ```
/// use boolmatch_core::{BatchScratchPool, EngineKind};
///
/// let engine = EngineKind::Counting.build();
/// let pool = BatchScratchPool::new(2);
/// {
///     let _batch = pool.checkout(&engine); // hygiene applied once here
/// } // returned to the pool on drop
/// assert_eq!(pool.pooled(), 1);
/// ```
pub type BatchScratchPool = Pool<BatchScratch>;

impl<S: PoolScratch> Pool<S> {
    /// A pool holding at most `slots` warm scratches (at least one),
    /// with no trim cap: a parked scratch keeps whatever high-water
    /// capacity it grew to. See [`Pool::with_trim_cap`] for the bounded
    /// form.
    pub fn new(slots: usize) -> Self {
        Self::with_trim_cap(slots, usize::MAX)
    }

    /// A pool whose parked scratches are bounded: a scratch returning
    /// with more than `trim_cap` heap bytes is trimmed (capacity
    /// released) before it re-enters the pool, so one pathological
    /// event — say a 100k-candidate spike — cannot pin its peak
    /// allocation in every pooled scratch forever. The next checkout of
    /// a trimmed scratch re-grows lazily to the engine at hand.
    pub fn with_trim_cap(slots: usize, trim_cap: usize) -> Self {
        let slots: Vec<Mutex<Option<S>>> = (0..slots.max(1)).map(|_| Mutex::new(None)).collect();
        for slot in &slots {
            slot.set_class(lock_classes::POOL);
        }
        Pool {
            slots,
            trim_cap,
            fresh: AtomicU64::new(0),
        }
    }

    /// Maximum number of scratches the pool retains.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// The heap-byte cap above which returning scratches are trimmed
    /// (`usize::MAX`: never).
    pub fn trim_cap(&self) -> usize {
        self.trim_cap
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
            .filter_map(|slot| slot.as_ref().map(S::heap_bytes))
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
    // fan-out job; pool slots are probed try-lock-only so a worker
    // never blocks here.

    /// Checks a scratch out for matching against `engine`, borrowing
    /// the pool. The hygiene pair — [`PoolScratch::reset`] +
    /// [`PoolScratch::ensure_capacity`] — runs exactly once, here.
    pub fn checkout(&self, engine: &(impl FilterEngine + ?Sized)) -> Pooled<'_, S> {
        Checkout {
            pool: self,
            scratch: Some(self.take(engine)),
        }
    }

    /// [`Pool::checkout`] for `'static` contexts (jobs on a
    /// [`WorkerPool`]): the lease holds an `Arc` to the pool instead of
    /// a borrow.
    pub fn lease(self: &Arc<Self>, engine: &(impl FilterEngine + ?Sized)) -> Lease<S> {
        Checkout {
            pool: Arc::clone(self),
            scratch: Some(self.take(engine)),
        }
    }

    /// Checkout core: pop a warm scratch from the first free occupied
    /// slot (or build a fresh one), then apply the hygiene pair.
    fn take(&self, engine: &(impl FilterEngine + ?Sized)) -> S {
        let parked = self
            .slots
            .iter()
            .filter_map(Mutex::try_lock)
            .find_map(|mut slot| slot.take());
        let mut scratch = parked.unwrap_or_else(|| {
            // ordering: a monotonic tally; nothing is published through it.
            self.fresh.fetch_add(1, Ordering::Relaxed);
            S::default()
        });
        scratch.reset();
        scratch.ensure_capacity(engine);
        scratch
    }

    /// Parks `scratch` in the first free empty slot; drops it when the
    /// pool is full or every slot is contended (never blocks). A
    /// scratch over the pool's [trim cap](Pool::with_trim_cap) is
    /// trimmed first, so spikes do not pin high-water capacity.
    fn put(&self, mut scratch: S) {
        if scratch.heap_bytes() > self.trim_cap {
            scratch.trim();
        }
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

/// A checked-out scratch: derefs to the scratch and returns it to the
/// pool `P` points at on drop. [`Pooled`] borrows the pool; [`Lease`]
/// holds it by `Arc` — the `'static` form worker-pool jobs use.
#[derive(Debug)]
pub struct Checkout<P: Deref<Target = Pool<S>>, S: PoolScratch> {
    pool: P,
    scratch: Option<S>,
}

/// A [`Checkout`] borrowing its [`Pool`].
pub type Pooled<'a, S> = Checkout<&'a Pool<S>, S>;
/// A [`Checkout`] holding its [`Pool`] by `Arc`.
pub type Lease<S> = Checkout<Arc<Pool<S>>, S>;
/// A checked-out [`MatchScratch`] borrowing its [`ScratchPool`].
pub type PooledScratch<'a> = Pooled<'a, MatchScratch>;
/// A checked-out [`MatchScratch`] holding its [`ScratchPool`] by `Arc`.
pub type ScratchLease = Lease<MatchScratch>;
/// A checked-out [`BatchScratch`] borrowing its [`BatchScratchPool`].
pub type PooledBatchScratch<'a> = Pooled<'a, BatchScratch>;
/// A checked-out [`BatchScratch`] holding its [`BatchScratchPool`] by
/// `Arc`.
pub type BatchScratchLease = Lease<BatchScratch>;

// The Option is only ever None after Drop took the scratch, so the
// expects below are unreachable while a guard is usable.
impl<P: Deref<Target = Pool<S>>, S: PoolScratch> Deref for Checkout<P, S> {
    type Target = S;

    fn deref(&self) -> &S {
        // lint: allow(panic-policy, reason = "guard invariant: the scratch is Some from construction until Drop")
        self.scratch.as_ref().expect("present until drop")
    }
}

impl<P: Deref<Target = Pool<S>>, S: PoolScratch> DerefMut for Checkout<P, S> {
    fn deref_mut(&mut self) -> &mut S {
        // lint: allow(panic-policy, reason = "guard invariant: the scratch is Some from construction until Drop")
        self.scratch.as_mut().expect("present until drop")
    }
}

impl<P: Deref<Target = Pool<S>>, S: PoolScratch> Drop for Checkout<P, S> {
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
/// Built for the broker's parallel publish pipeline: the pool is
/// created once (threads park between publishes) and each publish
/// submits one job per remote shard — no thread spawn on the hot path.
/// Jobs must be `'static` (capture `Arc`s, not borrows); for borrowed
/// data use [`crate::ShardedEngine::match_event_parallel`]'s scoped
/// fan-out instead.
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

    // lint: hot-path — submit runs once per remote shard per publish.

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

    /// Like [`FanOut::wait`], but drains each result through `f` (in
    /// slot order) **without** taking the slot vector — the allocation
    /// stays with the rendezvous, so a pooled `FanOut` reused via
    /// [`FanOutPool`] allocates nothing in steady state.
    pub fn wait_each(&self, mut f: impl FnMut(Option<T>)) {
        let mut state = self.lock();
        while state.remaining > 0 {
            state = self
                .done
                .wait(state)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        for slot in &mut state.slots {
            f(slot.take());
        }
    }

    /// Re-arms a spent rendezvous for `n` fresh slots, reusing the slot
    /// vector's capacity. Only a rendezvous whose previous run fully
    /// completed (every guard consumed or dropped) may be reset —
    /// [`FanOutPool::checkout`] additionally proves no guard still
    /// holds the `Arc` before calling this.
    ///
    /// # Panics
    ///
    /// Panics if slots from the previous run are still outstanding.
    fn reset(&self, n: usize) {
        let mut state = self.lock();
        assert_eq!(
            state.remaining, 0,
            "resetting a rendezvous with outstanding slots"
        );
        state.slots.clear();
        state.slots.resize_with(n, || None);
        state.remaining = n;
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

// ---------------------------------------------------------------------------
// FanOutPool

/// A non-blocking pool of reusable [`FanOut`] rendezvous — the
/// [`ScratchPool`]-style checkout that takes the per-publish rendezvous
/// allocation off the broker's parallel hot path.
///
/// [`FanOutPool::checkout`] probes the fixed slot array with
/// `try_lock`: a parked rendezvous is re-armed (slot vector capacity
/// reused, no allocation) if — and only if — nothing else still holds
/// its `Arc`; otherwise a fresh one is built. Workers may legitimately
/// hold a rendezvous `Arc` for a moment *after* the caller's `wait`
/// returns (a [`SlotGuard`] drops its reference after completing its
/// slot), so the checkout's uniqueness check is what makes reuse safe:
/// a rendezvous is only ever re-armed once every reference from its
/// previous run is gone. [`FanOutPool::park`] returns a waited-on
/// rendezvous for reuse (never blocks; dropped when the pool is full).
///
/// # Examples
///
/// ```
/// use boolmatch_core::FanOutPool;
///
/// let pool: FanOutPool<u32> = FanOutPool::new(1);
/// let run = pool.checkout(2);
/// run.slot(0).fill(10);
/// run.slot(1).fill(20);
/// let mut out = Vec::new();
/// run.wait_each(|v| out.push(v));
/// assert_eq!(out, vec![Some(10), Some(20)]);
/// pool.park(run);
/// assert_eq!(pool.pooled(), 1); // reused by the next checkout
/// ```
#[derive(Debug)]
pub struct FanOutPool<T> {
    slots: Vec<Mutex<Option<Arc<FanOut<T>>>>>,
}

impl<T> FanOutPool<T> {
    /// A pool retaining at most `slots` parked rendezvous (at least
    /// one).
    pub fn new(slots: usize) -> Self {
        let slots: Vec<Mutex<Option<Arc<FanOut<T>>>>> =
            (0..slots.max(1)).map(|_| Mutex::new(None)).collect();
        for slot in &slots {
            slot.set_class(lock_classes::POOL);
        }
        FanOutPool { slots }
    }

    // lint: hot-path — rendezvous checkout/park runs once per parallel
    // publish; slots are probed try-lock-only.

    /// Checks out a rendezvous armed for `n` slots: a parked one whose
    /// previous run has fully let go (its `Arc` is unique) is re-armed
    /// in place, otherwise a fresh one is allocated.
    pub fn checkout(&self, n: usize) -> Arc<FanOut<T>> {
        for slot in &self.slots {
            if let Some(mut guard) = slot.try_lock() {
                // The uniqueness check is race-free: the only way to
                // reach this Arc is through the slot we hold locked, so
                // a count of 1 cannot grow under us.
                if let Some(run) = guard.take_if(|run| Arc::strong_count(run) == 1) {
                    drop(guard);
                    run.reset(n);
                    return run;
                }
            }
        }
        FanOut::new(n)
    }

    /// Parks a rendezvous for reuse after its `wait`/`wait_each`
    /// returned. Never blocks; when every slot is full or contended the
    /// rendezvous is simply dropped.
    pub fn park(&self, run: Arc<FanOut<T>>) {
        debug_assert_eq!(
            run.lock().remaining,
            0,
            "parking a rendezvous that was never waited on"
        );
        for slot in &self.slots {
            if let Some(mut guard) = slot.try_lock() {
                if guard.is_none() {
                    *guard = Some(run);
                    return;
                }
            }
        }
    }

    // lint: end-hot-path

    /// Number of rendezvous currently parked (skipping slots another
    /// thread holds locked at probe time).
    pub fn pooled(&self) -> usize {
        self.slots
            .iter()
            .filter_map(Mutex::try_lock)
            .filter(|slot| slot.is_some())
            .count()
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
    fn batch_checkout_reuses_and_stops_allocating() {
        let mut engine = EngineKind::Counting.build();
        for i in 0..50 {
            engine
                .subscribe(&Expr::parse(&format!("(a = {i} or b = 1) and c <= {i}")).unwrap())
                .unwrap();
        }
        let pool = BatchScratchPool::new(2);
        let events: Vec<Arc<Event>> = (0..80)
            .map(|_| Arc::new(Event::builder().attr("b", 1_i64).attr("c", 0_i64).build()))
            .collect();

        // Warm-up: two batches grow every buffer fully.
        for _ in 0..2 {
            let mut batch = pool.checkout(&engine);
            engine.match_batch(&events, &[], &mut batch);
        }
        assert_eq!(pool.pooled(), 1);
        let warm = pool.heap_bytes();
        assert!(warm > 0);

        // Steady state: repeated checkouts re-use the warm batch
        // scratch and the pool's footprint stays bit-identical.
        for _ in 0..50 {
            let mut batch = pool.checkout(&engine);
            let stats = engine.match_batch(&events, &[], &mut batch);
            assert_eq!(stats.batch_events, 80);
        }
        assert_eq!(pool.pooled(), 1);
        assert_eq!(pool.heap_bytes(), warm, "steady state allocates nothing");
    }

    #[test]
    fn batch_pool_trims_oversized_returns() {
        let mut engine = EngineKind::Counting.build();
        for i in 0..64 {
            engine
                .subscribe(&Expr::parse(&format!("x{i} = 1 and y{i} = 2")).unwrap())
                .unwrap();
        }
        let pool = BatchScratchPool::with_trim_cap(1, 64);
        let events: Vec<Arc<Event>> = (0..70)
            .map(|_| Arc::new(Event::builder().attr("x0", 1_i64).build()))
            .collect();
        {
            let mut batch = pool.checkout(&engine);
            engine.match_batch(&events, &[], &mut batch);
            assert!(batch.heap_bytes() > 64);
        }
        // The oversized return was trimmed before parking.
        assert_eq!(pool.pooled(), 1);
        assert_eq!(pool.heap_bytes(), 0);
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
    fn oversized_scratches_are_trimmed_on_return() {
        let mut engine = EngineKind::NonCanonical.build();
        for i in 0..64 {
            engine
                .subscribe(&Expr::parse(&format!("(a = {i} or b = 1) and c <= {i}")).unwrap())
                .unwrap();
        }
        let event = Event::builder().attr("b", 1_i64).attr("c", 0_i64).build();

        // Uncapped pool (the old behaviour): the match's high-water
        // capacity stays pinned in the parked scratch.
        let uncapped = ScratchPool::new(1);
        {
            let mut scratch = uncapped.checkout(&engine);
            engine.match_event_into(&event, &mut scratch);
        }
        let pinned = uncapped.heap_bytes();
        assert!(pinned > 64, "the spike grew the scratch");

        // Capped pool: the same spike is trimmed on return — the
        // scratch is still parked (warm slot), but its capacity is
        // released instead of pinned forever.
        let capped = ScratchPool::with_trim_cap(1, 64);
        assert_eq!(capped.trim_cap(), 64);
        {
            let mut scratch = capped.checkout(&engine);
            engine.match_event_into(&event, &mut scratch);
            assert!(scratch.heap_bytes() > 64);
        }
        assert_eq!(capped.pooled(), 1, "trimmed, not dropped");
        assert_eq!(capped.heap_bytes(), 0, "high-water capacity released");

        // A trimmed scratch still matches correctly on re-checkout.
        let mut scratch = capped.checkout(&engine);
        let stats = engine.match_event_into(&event, &mut scratch);
        assert_eq!(stats.matched, 64);
    }

    #[test]
    fn lease_is_static_and_returns_on_drop() {
        let engine = EngineKind::NonCanonical.build();
        let pool = Arc::new(ScratchPool::new(1));
        let lease = pool.lease(&engine);
        let handle = std::thread::spawn(move || drop(lease));
        handle.join().unwrap();
        assert_eq!(pool.pooled(), 1);
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
        let pool = Arc::new(ScratchPool::new(1));
        let job_pool = Arc::clone(&pool);
        let result = std::thread::spawn(move || {
            let engine = EngineKind::Counting.build();
            let mut lease = job_pool.lease(&engine);
            // Stand-in for counters left half-updated by a panic inside
            // phase 2 (which normally restores them before returning).
            lease.hit.push(7);
            panic!("mid-match");
        })
        .join();
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
        assert_eq!(FanOutPool::<()>::new(0).slots.len(), 1);
    }

    #[test]
    fn fan_out_pool_reuses_the_rendezvous_allocation() {
        let pool: FanOutPool<usize> = FanOutPool::new(1);
        let first = pool.checkout(3);
        for i in 0..3 {
            first.slot(i).fill(i);
        }
        let mut got = Vec::new();
        first.wait_each(|v| got.push(v));
        assert_eq!(got, vec![Some(0), Some(1), Some(2)]);
        pool.park(first);
        assert_eq!(pool.pooled(), 1);

        // The next checkout re-arms the SAME rendezvous (pointer
        // equality proves no fresh allocation), even for a different
        // slot count.
        let peek = {
            let guard = pool.slots[0].try_lock().unwrap();
            Arc::as_ptr(guard.as_ref().unwrap())
        };
        let second = pool.checkout(2);
        assert!(
            std::ptr::eq(peek, Arc::as_ptr(&second)),
            "rendezvous reused"
        );
        assert_eq!(pool.pooled(), 0);
        second.slot(1).fill(9);
        second.slot(0).fill(8);
        assert_eq!(second.wait(), vec![Some(8), Some(9)]);
        pool.park(second);
    }

    #[test]
    fn fan_out_pool_skips_rendezvous_still_referenced_by_a_late_worker() {
        let pool: FanOutPool<u8> = FanOutPool::new(1);
        let run = pool.checkout(1);
        let straggler = Arc::clone(&run); // a worker still holding on
        run.slot(0).fill(1);
        run.wait_each(|_| {});
        pool.park(run);
        assert_eq!(pool.pooled(), 1);
        // The parked rendezvous is not unique, so checkout must build a
        // fresh one rather than re-arm under the straggler.
        let fresh = pool.checkout(1);
        assert!(!Arc::ptr_eq(&fresh, &straggler));
        drop(straggler);
        // Once the straggler lets go, the parked one is reusable again.
        let reused = pool.checkout(1);
        assert_eq!(pool.pooled(), 0);
        drop(reused);
        drop(fresh);
    }

    #[test]
    fn fan_out_pool_park_drops_overflow() {
        let pool: FanOutPool<u8> = FanOutPool::new(1);
        let a = pool.checkout(0);
        let b = pool.checkout(0);
        a.wait_each(|_| {});
        b.wait_each(|_| {});
        pool.park(a);
        pool.park(b); // pool full: dropped, not parked
        assert_eq!(pool.pooled(), 1);
    }

    #[test]
    #[should_panic(expected = "outstanding slots")]
    fn resetting_an_armed_rendezvous_panics() {
        let run: Arc<FanOut<u8>> = FanOut::new(2);
        let _guard = run.slot(0);
        run.reset(1);
    }

    #[test]
    #[should_panic(expected = "slot index out of range")]
    fn out_of_range_slot_panics() {
        let run = FanOut::<()>::new(1);
        let _ = run.slot(1);
    }
}
