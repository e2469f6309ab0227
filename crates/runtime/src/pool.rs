//! An order-preserving parallel map over a process-global thread budget.
//!
//! [`WorkerPool::map`] is one loop over one shared cursor. The caller
//! claims item 0; before each item it runs, it asks the budget for the
//! helper threads it still lacks and spawns them into the map's
//! `std::thread::scope`. Caller and helpers alike claim the next item
//! under the cursor's lock until it is dry, and a helper then ends,
//! returning its budget slot. Design constraints, in priority order:
//!
//! 1. **Determinism** — results come back in submission order and each
//!    task's [`TaskCtx`] is a function of its index alone, never of the
//!    thread that claimed it, so outputs are bit-identical under any
//!    thread count.
//! 2. **No deadlocks under nesting** — nothing ever waits for a slot. A
//!    map that finds the budget spent (e.g. an inner `map` inside an
//!    outer task) runs on its caller alone; a helper gives its slot back
//!    the moment the cursor is dry; and since the caller asks again
//!    before every item, a nested `map` picks up the core an outer
//!    `map`'s helper has just vacated.

use crate::seed::derive_seed;
use serde::Serialize;
use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// Stream tag for task seeds (see [`derive_seed`]).
const STREAM_TASK: u64 = 0x7461_736b; // "task"

/// Maximum worker threads per process; 0 = not yet initialised.
static GLOBAL_MAX_THREADS: AtomicUsize = AtomicUsize::new(0);
/// Extra (non-caller) worker threads currently running across all pools.
static ACTIVE_EXTRA: AtomicUsize = AtomicUsize::new(0);

/// The machine's available parallelism, detected once: the standard
/// library re-reads the affinity mask and the cgroup quota files on every
/// call, and with no explicit ceiling set every look at the budget —
/// several per `map` when a map that lacks helpers looks again before each
/// item — would pay those system calls.
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
/// `pool.map` span on the caller, the re-established one on helpers).
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
    /// Panics in `f` are propagated to the caller once every thread of the
    /// map has stopped; items not yet claimed are abandoned (in-flight
    /// ones finish their current `f` call).
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
        let parent = map_span.id();
        let started = telemetry::enabled().then(Instant::now);
        let max_helpers = match self.max_threads {
            0 => global_threads(),
            t => t,
        }
        .min(n)
        .saturating_sub(1);
        let cursor = Mutex::new(Cursor {
            items: items.into_iter().enumerate(),
            panic: None,
        });

        // One thread's share of the map: claim, run, repeat until the
        // cursor is dry or poisoned. `recruit` hears how many items are
        // still unclaimed before each one this thread runs.
        let work = |recruit: &mut dyn FnMut(usize)| -> Vec<(usize, U)> {
            let worker_start = started.map(|_| Instant::now());
            let mut busy_us = 0u64;
            let mut out = Vec::new();
            loop {
                let (i, item, left) = {
                    let mut cursor = crate::lock(&cursor);
                    if cursor.panic.is_some() {
                        break;
                    }
                    let Some((i, item)) = cursor.items.next() else {
                        break;
                    };
                    (i, item, cursor.items.len())
                };
                if let Some(started) = started {
                    telemetry::record("pool.queue_us", started.elapsed().as_micros() as u64);
                }
                recruit(left);
                let task_start = started.map(|_| Instant::now());
                let ctx = self.task_ctx(i);
                match panic::catch_unwind(AssertUnwindSafe(|| run_task(&f, &ctx, item))) {
                    Ok(value) => out.push((i, value)),
                    Err(payload) => {
                        crate::lock(&cursor).panic.get_or_insert(payload);
                        break;
                    }
                }
                if let Some(task_start) = task_start {
                    busy_us += task_start.elapsed().as_micros() as u64;
                }
            }
            if let Some(worker_start) = worker_start {
                let total_us = worker_start.elapsed().as_micros() as u64;
                telemetry::record("pool.idle_us", total_us.saturating_sub(busy_us));
            }
            out
        };

        let (mut done, workers) = std::thread::scope(|scope| {
            let work = &work;
            let mut helpers = Vec::new();
            let mut first = true;
            let mut out = work(&mut |left| {
                let lacking = max_helpers.min(left).saturating_sub(helpers.len());
                if lacking == 0 {
                    return;
                }
                let granted = acquire_extra(lacking);
                if first && granted == 0 {
                    // Parallelism was wanted but the global budget is spent
                    // (e.g. a feature-parallel histogram batch nested inside
                    // a per-tree forest task): the caller starts alone.
                    telemetry::count("pool.inline_fallback", 1);
                } else if !first && granted > 0 {
                    telemetry::count("pool.late_join", 1);
                }
                first = false;
                // Every granted slot is made before the first spawn, so one
                // that fails still returns them all.
                let slots: Vec<Slot> = (0..granted).map(|_| Slot).collect();
                for slot in slots {
                    helpers.push(scope.spawn(move || {
                        let _slot = slot;
                        // Re-establish the submitting call's span on this
                        // thread so task spans parent across the boundary.
                        let _parent = telemetry::parent_scope(parent);
                        work(&mut |_| {})
                    }));
                }
            });
            let workers = helpers.len() + 1;
            for helper in helpers {
                // A task's panic is caught in `work`; a join error should be
                // impossible, but goes down the same path just in case.
                match helper.join() {
                    Ok(theirs) => out.extend(theirs),
                    Err(payload) => {
                        crate::lock(&cursor).panic.get_or_insert(payload);
                    }
                }
            }
            (out, workers)
        });
        map_span.field("workers", workers as f64);

        let cursor = cursor.into_inner().unwrap_or_else(PoisonError::into_inner);
        if let Some(payload) = cursor.panic {
            panic::resume_unwind(payload);
        }
        // No panic, so every item was claimed and run exactly once.
        done.sort_unstable_by_key(|&(i, _)| i);
        done.into_iter().map(|(_, value)| value).collect()
    }
}

/// The items of one `map`, claimed front to back by every thread running
/// it, and the first panic a task raised, after which nothing more is
/// claimed.
struct Cursor<I> {
    items: I,
    panic: Option<Box<dyn Any + Send>>,
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
    fn a_map_far_larger_than_its_threads_completes_in_order() {
        set_global_threads(4);
        let n = 2 * 4096 + 50;
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
