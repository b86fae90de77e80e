//! Persistent work-stealing executor for the workspace's fan-out sites.
//!
//! Every parallel site in the workspace — [`Batch`](../sc_sim) sweeps,
//! `SlicedBatch` lane groups, the attack-search restart fan-out, the
//! verifier's fault-set fan-out, and `sweep_family` candidate screening —
//! shares one shape: `len` independent tasks where task `i`'s result is a
//! pure function of `i`, folded back **in index order**. [`Pool::map`]
//! serves exactly that shape from a lazily-started pool of persistent OS
//! threads, so repeated small fan-outs stop paying a `thread::scope`
//! spawn/join per call:
//!
//! * **Determinism.** Workers *claim* indices dynamically (an atomic
//!   counter — the work-stealing), but results land in per-index slots and
//!   are returned in index order. Since every caller's task is pure per
//!   index, the output is bitwise identical for every pool size and cap,
//!   including fully serial execution.
//! * **Submitter self-sufficiency.** The submitting thread claims indices
//!   itself after enqueueing at most `cap - 1` wake-up tickets, so a `map`
//!   always makes progress even when every pool worker is busy — nested
//!   submission (a task that itself calls [`Pool::map`]) cannot deadlock.
//! * **Panic propagation.** A panicking task is caught on the worker,
//!   recorded, and re-raised on the submitting thread once the batch has
//!   drained, matching the old `scope.join().expect(…)` behaviour. The
//!   batch aborts eagerly: indices claimed after the first panic are
//!   drained without executing the task, and per-worker
//!   [`WorkerScratch`] slots touched by the panicking closure are
//!   discarded rather than returned, so the next submission starts from
//!   freshly initialised scratch instead of half-mutated state.
//!
//! The pool size comes from [`threads`]: the `SC_THREADS` environment
//! variable when set (clamped to ≥ 1), else `available_parallelism`. The
//! global pool keeps `threads() - 1` workers because the submitter always
//! participates — a budget of `N` means at most `N` threads execute a map.
//!
//! [`WorkerScratch`] complements the pool with typed per-thread scratch
//! slots so hot-path state (round workspaces, plane arenas, warm solvers)
//! is built once per worker and reused across calls instead of per
//! invocation.

use std::any::Any;
use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::ThreadId;
use std::time::Instant;

/// Parses an `SC_THREADS`-style override: a decimal thread budget, clamped
/// to at least 1. Returns `None` (fall back to `available_parallelism`)
/// when the variable is unset, empty, or not a number.
pub fn thread_budget(raw: Option<&str>) -> Option<usize> {
    let text = raw?.trim();
    let parsed: usize = text.parse().ok()?;
    Some(parsed.max(1))
}

/// The process-wide thread budget: `SC_THREADS` when set (see
/// [`thread_budget`]), else `available_parallelism`, else 1. Cached on
/// first use — changing the environment afterwards has no effect.
pub fn threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        let env = std::env::var("SC_THREADS").ok();
        thread_budget(env.as_deref())
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
    })
}

/// The global pool: `threads() - 1` persistent workers (the submitting
/// thread is always the remaining executor), started on first use.
pub fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool::new(threads().saturating_sub(1)))
}

/// `pool().map(len, cap, task)` — the call shape every fan-out site uses.
pub fn map<T, F>(len: usize, cap: usize, task: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    pool().map(len, cap, task)
}

/// Lifetime pool introspection counters. All updates are relaxed atomics
/// — the hot claim path pays exactly one extra `fetch_add`, everything
/// else is per-batch or per-panic (cold) — except `panicked`, which is
/// bumped with Release after the batch's abort flag is set and read with
/// Acquire, so observing a panic implies observing the abort.
#[derive(Default)]
struct StatCells {
    batches: AtomicU64,
    submitted: AtomicU64,
    claimed: AtomicU64,
    panicked: AtomicU64,
    busy_ns: AtomicU64,
}

/// A point-in-time copy of a pool's introspection counters
/// ([`Pool::stats`]). Counters are lifetime totals, monotone across
/// snapshots; observability code derives rates by differencing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Background worker threads (the submitter is always one more).
    pub workers: usize,
    /// `map` calls served (serial fast path included).
    pub batches: u64,
    /// Task indices submitted across all batches.
    pub submitted: u64,
    /// Task indices claimed and executed (equals `submitted` once all
    /// batches have drained, short only of serial-path panics).
    pub claimed: u64,
    /// Tasks that panicked (each re-raised on its submitter).
    pub panicked: u64,
    /// Total wall nanoseconds background workers spent inside batches
    /// (executing claims). Submitter participation is not counted — it
    /// is the caller's own time. Idle time is uptime minus this.
    pub busy_ns: u64,
}

/// The per-batch progress ledger, shared between submitter and workers.
struct BatchState {
    /// Indices fully executed (slot written or panic recorded).
    finished: usize,
    /// First task panic, re-raised by the submitter after the drain.
    panic: Option<Box<dyn Any + Send>>,
}

/// The type-erased heart of one `map` call. Lives in an [`Arc`] so queue
/// tickets keep it alive past the submitter's return: a worker that pops a
/// stale ticket finds `next >= len` and exits without ever touching the
/// (by then freed) closure or slots behind the raw pointers.
struct BatchCore {
    /// Monomorphised entry point restoring the erased `F`/`T` types.
    enter: unsafe fn(&BatchCore),
    /// Points at the submitter's `F`; valid while any index `< len` is
    /// unclaimed or in flight, i.e. until `finished == len`.
    task: *const (),
    /// Points at the submitter's `[Slot<T>]`; same validity as `task`.
    slots: *const (),
    /// Claim counter — the work-stealing. Values `>= len` mean "done".
    next: AtomicUsize,
    len: usize,
    /// Set on the first task panic. Later claimants still drain their
    /// indices (the `finished == len` handshake must complete) but skip
    /// executing the task: the batch's result is already doomed to
    /// re-raise, so running more of a possibly-corrupted closure only
    /// wastes work and risks compounding damage.
    aborted: AtomicBool,
    state: Mutex<BatchState>,
    done: Condvar,
    /// The owning pool's counters (claim / panic accounting).
    stats: Arc<StatCells>,
}

// The raw pointers are only dereferenced for claimed indices `< len`,
// which the submitter outlives by construction (it blocks until
// `finished == len`).
unsafe impl Send for BatchCore {}
unsafe impl Sync for BatchCore {}

/// One result cell; written by exactly one claimant, read by the
/// submitter only after the `finished == len` handshake.
struct Slot<T>(UnsafeCell<Option<T>>);

unsafe impl<T: Send> Sync for Slot<T> {}

/// Claims and executes indices of `core`'s batch until none remain.
/// Shared by the submitter and every ticket-holding worker.
///
/// # Safety
///
/// `core.task` must point at a live `F` and `core.slots` at `core.len`
/// live `Slot<T>` cells for as long as any index `< len` is in flight.
unsafe fn enter_batch<T, F>(core: &BatchCore)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    loop {
        let index = core.next.fetch_add(1, Ordering::Relaxed);
        if index >= core.len {
            return;
        }
        core.stats.claimed.fetch_add(1, Ordering::Relaxed);
        // Only form references once the claim guarantees liveness.
        let task = &*(core.task as *const F);
        let slots = core.slots as *const Slot<T>;
        // Slot writes precede the `finished` bump: the submitter reads
        // slots only after observing `finished == len` under the mutex.
        let panicked = if core.aborted.load(Ordering::Relaxed) {
            None // drain the claim without running the doomed task
        } else {
            match catch_unwind(AssertUnwindSafe(|| task(index))) {
                Ok(value) => {
                    *(*slots.add(index)).0.get() = Some(value);
                    None
                }
                Err(payload) => {
                    // Release: whoever reads the panic count with Acquire
                    // (`Pool::stats`) also sees this batch's abort flag.
                    core.aborted.store(true, Ordering::Relaxed);
                    core.stats.panicked.fetch_add(1, Ordering::Release);
                    Some(payload)
                }
            }
        };
        let mut state = core.state.lock().unwrap();
        if let Some(payload) = panicked {
            state.panic.get_or_insert(payload);
        }
        state.finished += 1;
        if state.finished == core.len {
            core.done.notify_all();
        }
    }
}

/// The ticket queue workers block on.
struct Queue {
    jobs: Mutex<VecDeque<Arc<BatchCore>>>,
    available: Condvar,
}

/// A persistent pool of detached worker threads serving [`Pool::map`]
/// batches. The global instance is [`pool`]; sized instances exist for
/// benchmarks and tests.
pub struct Pool {
    queue: Arc<Queue>,
    workers: usize,
    stats: Arc<StatCells>,
}

impl Pool {
    /// Starts `workers` detached pool threads (0 is valid: every `map`
    /// runs serially on the submitting thread).
    pub fn new(workers: usize) -> Pool {
        let queue = Arc::new(Queue {
            jobs: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
        });
        let stats = Arc::new(StatCells::default());
        let mut started = 0;
        for worker in 0..workers {
            let queue = Arc::clone(&queue);
            let stats = Arc::clone(&stats);
            let spawned = std::thread::Builder::new()
                .name(format!("sc-exec-{worker}"))
                .spawn(move || worker_loop(&queue, &stats));
            if spawned.is_ok() {
                started += 1;
            }
        }
        Pool {
            queue,
            workers: started,
            stats,
        }
    }

    /// Background workers (the submitter is always one more executor).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// A snapshot of the pool's lifetime counters. Lock-free atomic reads
    /// — safe to poll from a metrics thread at any rate. A thread that
    /// sees a panic counted in `panicked` also sees the abort flag of the
    /// batch that panicked: any index of that batch it claims afterwards
    /// is drained without running.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            workers: self.workers,
            batches: self.stats.batches.load(Ordering::Relaxed),
            submitted: self.stats.submitted.load(Ordering::Relaxed),
            claimed: self.stats.claimed.load(Ordering::Relaxed),
            panicked: self.stats.panicked.load(Ordering::Acquire),
            busy_ns: self.stats.busy_ns.load(Ordering::Relaxed),
        }
    }

    /// Batches currently enqueued and not yet picked up (wake-up tickets
    /// outstanding). Takes the queue lock briefly; observability only.
    pub fn queue_depth(&self) -> usize {
        self.queue.jobs.lock().unwrap().len()
    }

    /// Evaluates `task(0..len)` with at most `cap` threads (submitter
    /// included) and returns the results in index order. `task` must be a
    /// pure function of its index for the thread-count invariance
    /// contract to hold — every call site in the workspace is.
    pub fn map<T, F>(&self, len: usize, cap: usize, task: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        if len == 0 {
            return Vec::new();
        }
        self.stats.batches.fetch_add(1, Ordering::Relaxed);
        self.stats
            .submitted
            .fetch_add(len as u64, Ordering::Relaxed);
        let cap = cap.min(len).max(1);
        if cap == 1 || self.workers == 0 {
            let out: Vec<T> = (0..len).map(task).collect();
            self.stats.claimed.fetch_add(len as u64, Ordering::Relaxed);
            return out;
        }

        let slots: Vec<Slot<T>> = (0..len).map(|_| Slot(UnsafeCell::new(None))).collect();
        let core = Arc::new(BatchCore {
            enter: enter_batch::<T, F>,
            task: (&task as *const F).cast(),
            slots: slots.as_ptr().cast(),
            next: AtomicUsize::new(0),
            len,
            aborted: AtomicBool::new(false),
            state: Mutex::new(BatchState {
                finished: 0,
                panic: None,
            }),
            done: Condvar::new(),
            stats: Arc::clone(&self.stats),
        });

        let tickets = (cap - 1).min(self.workers);
        {
            let mut jobs = self.queue.jobs.lock().unwrap();
            for _ in 0..tickets {
                jobs.push_back(Arc::clone(&core));
            }
        }
        if tickets == 1 {
            self.queue.available.notify_one();
        } else {
            self.queue.available.notify_all();
        }

        // The submitter claims indices too: progress is guaranteed even
        // when every worker is busy, so nested maps cannot deadlock.
        unsafe { enter_batch::<T, F>(&core) };

        let panic = {
            let mut state = core.state.lock().unwrap();
            while state.finished < len {
                state = core.done.wait(state).unwrap();
            }
            state.panic.take()
        };
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
        slots
            .into_iter()
            .map(|slot| {
                slot.0
                    .into_inner()
                    .expect("every claimed index wrote its slot")
            })
            .collect()
    }
}

fn worker_loop(queue: &Queue, stats: &StatCells) {
    loop {
        let core = {
            let mut jobs = queue.jobs.lock().unwrap();
            loop {
                if let Some(core) = jobs.pop_front() {
                    break core;
                }
                jobs = queue.available.wait(jobs).unwrap();
            }
        };
        let entered = Instant::now();
        unsafe { (core.enter)(&core) };
        stats
            .busy_ns
            .fetch_add(entered.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
}

/// Typed per-worker scratch: one slot per OS thread, keyed by
/// [`ThreadId`], so hot-path state is built once per worker and stays
/// warm across [`Pool::map`] calls.
///
/// Usable as a `static` (state warm across calls, `T: 'static`) or as a
/// stack local threaded through one fan-out (state warm across the items
/// one worker claims, `T` may borrow). [`WorkerScratch::with`] *takes*
/// the calling thread's slot for the duration of the closure, so nested
/// use from one thread initialises a fresh value instead of aliasing.
pub struct WorkerScratch<T> {
    slots: Mutex<Vec<(ThreadId, T)>>,
    /// `with` calls that reused a parked slot.
    warm: AtomicU64,
    /// `with` calls that ran `init` (first use per thread, or nested
    /// checkout).
    cold: AtomicU64,
}

impl<T> WorkerScratch<T> {
    /// An empty scratch table (usable in `static` position).
    pub const fn new() -> WorkerScratch<T> {
        WorkerScratch {
            slots: Mutex::new(Vec::new()),
            warm: AtomicU64::new(0),
            cold: AtomicU64::new(0),
        }
    }

    /// `with` calls that found a warm per-thread slot.
    pub fn warm_hits(&self) -> u64 {
        self.warm.load(Ordering::Relaxed)
    }

    /// `with` calls that had to build fresh state.
    pub fn cold_inits(&self) -> u64 {
        self.cold.load(Ordering::Relaxed)
    }

    /// Runs `body` with the calling thread's slot, initialising it via
    /// `init` on the thread's first use (or when the slot is checked
    /// out by a nested `with`). The slot is returned to the table
    /// afterwards; a panicking `body` drops it instead, so a fresh one
    /// is built on the next call.
    pub fn with<R>(&self, init: impl FnOnce() -> T, body: impl FnOnce(&mut T) -> R) -> R {
        let me = std::thread::current().id();
        let taken = {
            let mut slots = self.slots.lock().unwrap();
            slots
                .iter()
                .position(|(owner, _)| *owner == me)
                .map(|at| slots.swap_remove(at).1)
        };
        let cell = if taken.is_some() {
            &self.warm
        } else {
            &self.cold
        };
        cell.fetch_add(1, Ordering::Relaxed);
        let mut value = taken.unwrap_or_else(init);
        let out = body(&mut value);
        self.slots.lock().unwrap().push((me, value));
        out
    }

    /// Drains every parked slot (used to fold per-worker state — audit
    /// counters, forked filters — back into a caller's aggregate).
    pub fn take_all(&self) -> Vec<T> {
        let mut slots = self.slots.lock().unwrap();
        std::mem::take(&mut *slots)
            .into_iter()
            .map(|(_, value)| value)
            .collect()
    }
}

impl<T> Default for WorkerScratch<T> {
    fn default() -> WorkerScratch<T> {
        WorkerScratch::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_budget_parses_and_clamps() {
        assert_eq!(thread_budget(None), None);
        assert_eq!(thread_budget(Some("")), None);
        assert_eq!(thread_budget(Some("not a number")), None);
        assert_eq!(thread_budget(Some("-3")), None);
        assert_eq!(thread_budget(Some("0")), Some(1));
        assert_eq!(thread_budget(Some("1")), Some(1));
        assert_eq!(thread_budget(Some(" 7 ")), Some(7));
        assert_eq!(thread_budget(Some("64")), Some(64));
    }

    #[test]
    fn map_is_identity_ordered_for_every_pool_and_cap() {
        let serial: Vec<u64> = (0..97).map(|i| (i as u64).wrapping_mul(0x9E37)).collect();
        for workers in [0, 1, 3, 7] {
            let pool = Pool::new(workers);
            for cap in [1, 2, 5, 64] {
                let got = pool.map(97, cap, |i| (i as u64).wrapping_mul(0x9E37));
                assert_eq!(got, serial, "workers={workers} cap={cap}");
            }
        }
    }

    #[test]
    fn empty_and_single_item_maps() {
        let pool = Pool::new(2);
        assert_eq!(pool.map(0, 8, |i| i), Vec::<usize>::new());
        assert_eq!(pool.map(1, 8, |i| i + 41), vec![41]);
    }

    #[test]
    fn nested_maps_do_not_deadlock() {
        let pool = Pool::new(2);
        let sums = pool.map(8, 8, |outer| {
            crate::map(5, 4, move |inner| outer * 10 + inner)
                .into_iter()
                .sum::<usize>()
        });
        let expect: Vec<usize> = (0..8).map(|outer| outer * 50 + 10).collect();
        assert_eq!(sums, expect);
    }

    #[test]
    fn panics_propagate_to_the_submitter() {
        let pool = Pool::new(2);
        let attempt = catch_unwind(AssertUnwindSafe(|| {
            pool.map(16, 4, |i| {
                if i == 11 {
                    panic!("task 11 exploded");
                }
                i
            })
        }));
        let payload = attempt.expect_err("the task panic must re-raise");
        let text = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(text, "task 11 exploded");
        // The pool survives a panicked batch.
        assert_eq!(pool.map(4, 4, |i| i), vec![0, 1, 2, 3]);
    }

    #[test]
    fn worker_scratch_reuses_per_thread_state() {
        let scratch: WorkerScratch<Vec<u32>> = WorkerScratch::new();
        let first = scratch.with(|| vec![1], |v| v.clone());
        assert_eq!(first, vec![1]);
        scratch.with(|| unreachable!("slot must be reused"), |v| v.push(2));
        let drained = scratch.take_all();
        assert_eq!(drained, vec![vec![1, 2]]);
        // Nested `with` checks the slot out: the inner call re-inits.
        let nested: WorkerScratch<u32> = WorkerScratch::new();
        nested.with(
            || 5,
            |outer| {
                nested.with(|| 9, |inner| assert_eq!(*inner, 9));
                assert_eq!(*outer, 5);
            },
        );
        let mut parked = nested.take_all();
        parked.sort_unstable();
        assert_eq!(parked, vec![5, 9]);
    }

    #[test]
    fn stats_count_batches_tasks_and_panics() {
        let pool = Pool::new(2);
        let start = pool.stats();
        assert_eq!(start.workers, 2);
        assert_eq!((start.batches, start.submitted, start.claimed), (0, 0, 0));

        pool.map(10, 4, |i| i); // parallel path
        pool.map(5, 1, |i| i); // serial fast path
        let after = pool.stats();
        assert_eq!(after.batches, 2);
        assert_eq!(after.submitted, 15);
        assert_eq!(after.claimed, 15, "all submitted tasks drain");
        assert_eq!(after.panicked, 0);

        let _ = catch_unwind(AssertUnwindSafe(|| {
            pool.map(8, 4, |i| {
                if i == 3 {
                    panic!("boom");
                }
                i
            })
        }));
        let end = pool.stats();
        assert_eq!(end.batches, 3);
        assert_eq!(end.submitted, 23);
        assert_eq!(end.panicked, 1);
        // Aborted claims still drain: claimed covers the whole batch.
        assert_eq!(end.claimed, 23);
        // Stale wake-up tickets are popped asynchronously; the depth
        // must reach 0 once workers catch up.
        let deadline = Instant::now() + std::time::Duration::from_secs(10);
        while pool.queue_depth() > 0 && Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert_eq!(pool.queue_depth(), 0, "no stale tickets after drains");
    }

    #[test]
    fn scratch_counts_warm_and_cold_paths() {
        let scratch: WorkerScratch<u32> = WorkerScratch::new();
        scratch.with(|| 1, |_| {});
        scratch.with(|| unreachable!(), |_| {});
        scratch.with(|| unreachable!(), |_| {});
        assert_eq!(scratch.cold_inits(), 1);
        assert_eq!(scratch.warm_hits(), 2);
    }

    #[test]
    fn pool_map_matches_serial_under_contention() {
        // Many small batches through one pool: the reuse regime the
        // executor exists for. Each batch's results must stay ordered.
        let pool = Pool::new(3);
        for round in 0..200usize {
            let got = pool.map(9, 4, move |i| round * 100 + i);
            let expect: Vec<usize> = (0..9).map(|i| round * 100 + i).collect();
            assert_eq!(got, expect, "round {round}");
        }
    }
}
