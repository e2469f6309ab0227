//! Work-stealing thread pool with bounded queues.
//!
//! Design constraints, in priority order:
//!
//! 1. **Determinism** — [`WorkerPool::map`] returns results in submission
//!    order and each task's [`TaskCtx::seed`] depends only on the task
//!    index, so outputs are bit-identical under any thread count.
//! 2. **No deadlocks under nesting** — worker threads are scoped to each
//!    `map` call and drawn from a global budget; when the budget is
//!    exhausted (e.g. an inner `map` inside an outer task) the caller
//!    simply runs its items inline. Nothing ever waits for a slot: a
//!    helper gives its slot back the moment it finds no work left, and an
//!    inline map looks at the budget again between items and hands its
//!    remaining items to helpers once one is free — so a nested `map`
//!    picks up the core an outer `map`'s helper has just vacated.
//! 3. **Bounded memory** — items are distributed into per-worker deques
//!    with a capacity bound; overflow is executed inline by the caller
//!    (backpressure) instead of queueing without limit.

use crate::seed::derive_seed;
use serde::Serialize;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Stream tag for task seeds (see [`derive_seed`]).
const STREAM_TASK: u64 = 0x7461_736b; // "task"

/// Bound on each worker's queue; overflow runs inline on the caller.
const QUEUE_CAPACITY: usize = 4096;

/// Maximum worker threads per process; 0 = not yet initialised.
static GLOBAL_MAX_THREADS: AtomicUsize = AtomicUsize::new(0);
/// Extra (non-caller) worker threads currently running across all pools.
static ACTIVE_EXTRA: AtomicUsize = AtomicUsize::new(0);

/// The machine's available parallelism, detected once: the standard
/// library re-reads the affinity mask and the cgroup quota files on every
/// call, and with no explicit ceiling set every look at the budget —
/// several per `map` now that inline maps look again between items — would
/// pay those system calls.
fn detect_threads() -> usize {
    static DETECTED: OnceLock<usize> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Set the process-wide worker-thread ceiling. `0` resets to the
/// machine's available parallelism.
pub fn set_global_threads(n: usize) {
    let v = if n == 0 { detect_threads() } else { n };
    GLOBAL_MAX_THREADS.store(v, Ordering::SeqCst);
}

/// The process-wide worker-thread ceiling.
pub fn global_threads() -> usize {
    match GLOBAL_MAX_THREADS.load(Ordering::SeqCst) {
        0 => detect_threads(),
        n => n,
    }
}

/// Claim up to `want` extra threads from the global budget; returns the
/// number granted, each to be handed to a helper thread as a [`Slot`].
fn acquire_extra(want: usize) -> usize {
    let limit = global_threads().saturating_sub(1);
    loop {
        let cur = ACTIVE_EXTRA.load(Ordering::SeqCst);
        let grant = want.min(limit.saturating_sub(cur));
        if grant == 0 {
            return 0;
        }
        if ACTIVE_EXTRA
            .compare_exchange(cur, cur + grant, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
        {
            return grant;
        }
    }
}

/// One helper thread's claim on the global budget (granted by
/// [`acquire_extra`]), returned when dropped — which is when the helper's
/// thread body ends, whether it ran dry, saw the map poisoned or unwound.
struct Slot;

impl Drop for Slot {
    fn drop(&mut self) {
        ACTIVE_EXTRA.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Point-in-time view of the global thread budget, for introspection
/// surfaces (the serve crate's `/status` page).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct PoolStats {
    /// Process-wide worker-thread ceiling ([`global_threads`]).
    pub threads: usize,
    /// Extra (non-caller) worker threads currently running across all
    /// pools; transient by nature.
    pub active_extra: usize,
}

/// Snapshot the global thread budget.
pub fn pool_stats() -> PoolStats {
    PoolStats {
        threads: global_threads(),
        active_extra: ACTIVE_EXTRA.load(Ordering::SeqCst),
    }
}

/// Run one task under a `pool.task` span, recording its run time. The
/// span parents under whatever is current on the executing thread (the
/// `pool.map` span inline, the re-established submitter span on workers).
fn run_task<T, U, F>(f: &F, ctx: &TaskCtx, item: T) -> U
where
    F: Fn(&TaskCtx, T) -> U,
{
    if !telemetry::enabled() {
        return f(ctx, item);
    }
    let _task = telemetry::span("pool.task");
    let start = Instant::now();
    let out = f(ctx, item);
    telemetry::record("pool.run_us", start.elapsed().as_micros() as u64);
    out
}

/// Per-task execution context handed to every `map` closure.
#[derive(Clone, Debug)]
pub struct TaskCtx {
    /// Submission index of this task.
    pub index: usize,
    /// Deterministic task seed: a pure function of (pool seed, index).
    pub seed: u64,
}

/// A configured handle for running order-preserving parallel maps.
///
/// The pool itself is cheap: threads are scoped to each [`map`] call, so
/// holding a `WorkerPool` costs nothing between calls.
///
/// [`map`]: WorkerPool::map
#[derive(Clone, Debug, Default)]
pub struct WorkerPool {
    /// `0` defers to the global ceiling.
    max_threads: usize,
    root_seed: u64,
}

impl WorkerPool {
    pub fn new() -> Self {
        Self::default()
    }

    /// Cap this pool's threads (`0` = global ceiling).
    pub fn with_threads(mut self, n: usize) -> Self {
        self.max_threads = n;
        self
    }

    /// Root seed from which per-task seeds are derived.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.root_seed = seed;
        self
    }

    fn task_ctx(&self, index: usize) -> TaskCtx {
        TaskCtx {
            index,
            seed: derive_seed(self.root_seed, STREAM_TASK, index as u64),
        }
    }

    /// Apply `f` to every item, in parallel when the global thread budget
    /// allows, returning outputs in submission order.
    ///
    /// Panics in `f` are propagated to the caller; remaining queued items
    /// are abandoned (in-flight ones finish their current `f` call).
    pub fn map<T, U, F>(&self, items: Vec<T>, f: F) -> Vec<U>
    where
        T: Send,
        U: Send,
        F: Fn(&TaskCtx, T) -> U + Sync,
    {
        let n = items.len();
        if n == 0 {
            return Vec::new();
        }
        let mut map_span = telemetry::span("pool.map");
        map_span.field("items", n as f64);

        let want = match self.max_threads {
            0 => global_threads(),
            n => n,
        };
        let extra = if want <= 1 || n <= 1 {
            0
        } else {
            acquire_extra(want.min(n).saturating_sub(1))
        };
        map_span.field("workers", (extra + 1) as f64);

        if extra == 0 {
            if want > 1 && n > 1 {
                // Parallelism was wanted but the global budget is spent
                // (e.g. a feature-parallel histogram batch nested inside a
                // per-tree forest task) — start inline on the caller.
                telemetry::count("pool.inline_fallback", 1);
            }
            return self.map_inline(items, &f, want, map_span.id());
        }
        self.map_parallel(items, 0, &f, extra, map_span.id())
            .unwrap_or_else(|payload| panic::resume_unwind(payload))
    }

    /// Run `items` one by one on the caller, looking at the global budget
    /// again after each: as soon as helpers can be had (an outer map's
    /// helper ran dry and returned its slot), the remaining items go to
    /// [`map_parallel`](Self::map_parallel) under their original
    /// submission indices, so every task sees the `TaskCtx` it would have
    /// seen inline.
    fn map_inline<T, U, F>(
        &self,
        items: Vec<T>,
        f: &F,
        want: usize,
        parent: telemetry::SpanId,
    ) -> Vec<U>
    where
        T: Send,
        U: Send,
        F: Fn(&TaskCtx, T) -> U + Sync,
    {
        let mut out = Vec::with_capacity(items.len());
        let mut items = items.into_iter();
        while let Some(item) = items.next() {
            out.push(run_task(f, &self.task_ctx(out.len()), item));
            let left = items.len();
            if want <= 1 || left <= 1 {
                continue;
            }
            let extra = acquire_extra(want.min(left) - 1);
            if extra > 0 {
                telemetry::count("pool.late_join", 1);
                let rest = self
                    .map_parallel(items.collect(), out.len(), f, extra, parent)
                    .unwrap_or_else(|payload| panic::resume_unwind(payload));
                out.extend(rest);
                break;
            }
        }
        out
    }

    /// Run `items` — submission indices `base..base + items.len()` — on
    /// the caller plus `extra` helper threads, each of which owns one
    /// granted budget [`Slot`] until it finds no more work.
    fn map_parallel<T, U, F>(
        &self,
        items: Vec<T>,
        base: usize,
        f: &F,
        extra: usize,
        parent: telemetry::SpanId,
    ) -> Result<Vec<U>, Box<dyn std::any::Any + Send>>
    where
        T: Send,
        U: Send,
        F: Fn(&TaskCtx, T) -> U + Sync,
    {
        // Claimed before anything can unwind, so every granted slot is
        // returned exactly once on every path out of here.
        let slots: Vec<Slot> = (0..extra).map(|_| Slot).collect();
        let n = items.len();
        let n_workers = extra + 1; // caller participates
        type Job<T> = (usize, T, Option<Instant>);
        let queues: Vec<Mutex<VecDeque<Job<T>>>> = (0..n_workers)
            .map(|_| Mutex::new(VecDeque::new()))
            .collect();
        let poisoned = AtomicBool::new(false);
        let panic_payload: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);
        let mut results: Vec<Option<U>> = Vec::with_capacity(n);
        results.resize_with(n, || None);
        let mut inline: Vec<(usize, U)> = Vec::new();

        // Distribute round-robin under the per-queue bound; overflow runs
        // inline right here (backpressure on the submitting thread).
        for (i, item) in items.into_iter().enumerate() {
            let enqueued_at = telemetry::enabled().then(Instant::now);
            let free = (0..n_workers).find_map(|off| {
                let q = crate::lock(&queues[(i + off) % n_workers]);
                (q.len() < QUEUE_CAPACITY).then_some(q)
            });
            match free {
                Some(mut q) => q.push_back((i, item, enqueued_at)),
                None => {
                    telemetry::count("pool.inline_overflow", 1);
                    let ctx = self.task_ctx(base + i);
                    inline.push((i, run_task(f, &ctx, item)));
                }
            }
        }

        let run_worker = |me: usize| -> Vec<(usize, U)> {
            // Re-establish the submitting call's span on this thread so
            // task spans parent across the pool boundary.
            let _parent = telemetry::parent_scope(parent);
            let worker_start = telemetry::enabled().then(Instant::now);
            let mut busy_us = 0u64;
            let mut out = Vec::new();
            loop {
                if poisoned.load(Ordering::SeqCst) {
                    break;
                }
                // Own queue first (front), then steal (back) from others.
                let job = {
                    let mut job = crate::lock(&queues[me]).pop_front();
                    if job.is_none() {
                        for off in 1..n_workers {
                            let victim = (me + off) % n_workers;
                            job = crate::lock(&queues[victim]).pop_back();
                            if job.is_some() {
                                break;
                            }
                        }
                    }
                    job
                };
                let Some((i, item, enqueued_at)) = job else {
                    break;
                };
                if let Some(enqueued_at) = enqueued_at {
                    telemetry::record("pool.queue_us", enqueued_at.elapsed().as_micros() as u64);
                }
                let task_start = worker_start.map(|_| Instant::now());
                let ctx = self.task_ctx(base + i);
                match panic::catch_unwind(AssertUnwindSafe(|| run_task(f, &ctx, item))) {
                    Ok(value) => {
                        if let Some(task_start) = task_start {
                            busy_us += task_start.elapsed().as_micros() as u64;
                        }
                        out.push((i, value));
                    }
                    Err(payload) => {
                        poisoned.store(true, Ordering::SeqCst);
                        *crate::lock(&panic_payload) = Some(payload);
                        break;
                    }
                }
            }
            if let Some(worker_start) = worker_start {
                let total_us = worker_start.elapsed().as_micros() as u64;
                telemetry::record("pool.idle_us", total_us.saturating_sub(busy_us));
            }
            out
        };

        let mut worker_outputs: Vec<Vec<(usize, U)>> = Vec::new();
        std::thread::scope(|scope| {
            let run_worker = &run_worker;
            let handles: Vec<_> = slots
                .into_iter()
                .enumerate()
                .map(|(w, slot)| {
                    scope.spawn(move || {
                        // All work is queued before any worker starts, so
                        // a helper that runs dry is done for good: its
                        // slot goes back now, not when the map joins.
                        let _slot = slot;
                        run_worker(w + 1)
                    })
                })
                .collect();
            worker_outputs.push(run_worker(0));
            for h in handles {
                // A worker can only panic via the propagated payload path
                // above; join errors should be impossible, but fold them
                // into the same poison channel just in case.
                match h.join() {
                    Ok(out) => worker_outputs.push(out),
                    Err(payload) => {
                        poisoned.store(true, Ordering::SeqCst);
                        *crate::lock(&panic_payload) = Some(payload);
                    }
                }
            }
        });

        if let Some(payload) = crate::lock(&panic_payload).take() {
            return Err(payload);
        }
        for (i, value) in inline
            .into_iter()
            .chain(worker_outputs.into_iter().flatten())
        {
            results[i] = Some(value);
        }
        // Invariant: every index ran inline or was queued, and the queues
        // are drained unless a task panicked, which returned above.
        #[allow(clippy::expect_used)]
        Ok(results
            .into_iter()
            .map(|r| r.expect("every task produced a result"))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn map_preserves_order_and_covers_all_items() {
        set_global_threads(4);
        let pool = WorkerPool::new();
        let out = pool.map((0..100).collect(), |_ctx, x: i32| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_matches_single_threaded_bit_for_bit() {
        set_global_threads(4);
        let work = |ctx: &TaskCtx, x: u64| -> u64 {
            // Depends on the task seed, so scheduling-dependent seeds
            // would show up as a mismatch.
            ctx.seed.wrapping_mul(x + 1)
        };
        let seq = WorkerPool::new().with_seed(9).with_threads(1);
        let par = WorkerPool::new().with_seed(9).with_threads(4);
        let items: Vec<u64> = (0..257).collect();
        assert_eq!(seq.map(items.clone(), work), par.map(items, work));
    }

    #[test]
    fn task_seeds_are_stable_and_distinct() {
        let pool = WorkerPool::new().with_seed(5).with_threads(1);
        let seeds = pool.map(vec![(); 64], |ctx, ()| ctx.seed);
        let again = pool.map(vec![(); 64], |ctx, ()| ctx.seed);
        assert_eq!(seeds, again);
        let unique: std::collections::HashSet<_> = seeds.iter().collect();
        assert_eq!(unique.len(), seeds.len());
    }

    #[test]
    fn nested_maps_do_not_deadlock() {
        set_global_threads(4);
        let outer = WorkerPool::new();
        let out = outer.map((0..8).collect(), |_ctx, x: u64| {
            let inner = WorkerPool::new();
            inner
                .map((0..8).collect(), move |_c, y: u64| x * 10 + y)
                .into_iter()
                .sum::<u64>()
        });
        let expected: Vec<u64> = (0..8).map(|x| (0..8).map(|y| x * 10 + y).sum()).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn items_past_the_queue_bound_still_complete() {
        set_global_threads(4);
        // Two queues hold 2 * QUEUE_CAPACITY items; the rest overflow
        // onto the submitting thread.
        let n = 2 * QUEUE_CAPACITY as i32 + 50;
        let pool = WorkerPool::new().with_threads(2);
        let out = pool.map((0..n).collect(), |_ctx, x: i32| x + 1);
        assert_eq!(out, (1..=n).collect::<Vec<_>>());
    }

    #[test]
    fn panic_in_task_propagates() {
        set_global_threads(4);
        let pool = WorkerPool::new();
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.map((0..16).collect(), |_ctx, x: i32| {
                if x == 7 {
                    panic!("boom at {x}");
                }
                x
            })
        }));
        assert!(result.is_err());
    }

    #[test]
    fn runs_concurrently_when_budget_allows() {
        set_global_threads(4);
        // Retry: another test's map could transiently hold the budget.
        for _ in 0..10 {
            let in_flight = AtomicUsize::new(0);
            let peak = AtomicUsize::new(0);
            let pool = WorkerPool::new().with_threads(2);
            pool.map(vec![(); 2], |_ctx, ()| {
                let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(30));
                in_flight.fetch_sub(1, Ordering::SeqCst);
            });
            if peak.load(Ordering::SeqCst) == 2 {
                return;
            }
        }
        panic!("two-task map never overlapped despite a thread budget of 4");
    }
}
