//! The global thread budget under nesting: a helper returns its slot the
//! moment it runs dry, and a `map` short of helpers — one that started
//! inline or with fewer than it wants — picks that slot up between items
//! (`runtime::pool`, DESIGN.md §5).
//!
//! Every test pins the budget and reads `pool_stats()`, both process-wide,
//! so they live in their own test binary and run one at a time behind
//! [`serial`]. Interleavings are forced with latches, never with sleeps;
//! the only timeouts bound how long a *failing* run waits before it says so.

use runtime::{pool_stats, set_global_threads, TaskCtx, WorkerPool};
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::thread::ThreadId;
use std::time::Duration;

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    // A failed test poisons the lock; the next one still has to run alone.
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Counts arrivals; waiters block until enough parties have arrived.
#[derive(Default)]
struct Latch {
    arrived: Mutex<usize>,
    changed: Condvar,
}

impl Latch {
    fn arrive(&self) {
        *self.arrived.lock().unwrap() += 1;
        self.changed.notify_all();
    }

    /// Block until `parties` have arrived; `false` if they never did.
    fn wait_for(&self, parties: usize) -> bool {
        let guard = self.arrived.lock().unwrap();
        let (_guard, timeout) = self
            .changed
            .wait_timeout_while(guard, Duration::from_secs(20), |n| *n < parties)
            .unwrap();
        !timeout.timed_out()
    }

    /// Arrive, then wait for the other `parties - 1`.
    fn meet(&self, parties: usize) -> bool {
        self.arrive();
        self.wait_for(parties)
    }
}

const INNER_SEED: u64 = 77;

/// What one inner task saw.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Seen {
    index: usize,
    seed: u64,
    thread: ThreadId,
}

/// An outer `map` of two items on a budget of two threads. Item 0 (the
/// caller's: it sits at the front of the caller's own queue) runs an inner
/// `map` of `n` items, which has to start inline because item 1 — on the
/// one helper the budget allows — holds the only slot until `release`
/// opens. `release_after` names the inner item that opens it and then
/// waits until the helper has really gone (`active_extra == 0`), so the
/// inline loop's next look at the budget is the one that succeeds; `None`
/// keeps the helper until the inner map has returned. The two inner items
/// right after the hand-over only finish once they have met on two
/// different threads.
fn nested(n: usize, release_after: Option<usize>, panic_at: Option<usize>) -> Vec<Seen> {
    set_global_threads(2);
    assert_eq!(pool_stats().active_extra, 0, "budget must start idle");
    let release = Latch::default();
    let handed_over = Latch::default();
    let inner = |_: &TaskCtx, ()| {
        let seen = WorkerPool::new()
            .with_seed(INNER_SEED)
            .map(vec![(); n], |ctx, ()| {
                if panic_at == Some(ctx.index) {
                    panic!("inner task {} fails", ctx.index);
                }
                if release_after == Some(ctx.index) {
                    release.arrive();
                    while pool_stats().active_extra != 0 {
                        std::thread::yield_now();
                    }
                }
                if release_after.is_some_and(|k| ctx.index == k + 1 || ctx.index == k + 2) {
                    assert!(
                        handed_over.meet(2),
                        "the items after the hand-over never ran on two threads"
                    );
                }
                Seen {
                    index: ctx.index,
                    seed: ctx.seed,
                    thread: std::thread::current().id(),
                }
            });
        release.arrive(); // `None`: the helper may go now
        seen
    };
    let hold_slot = |_: &TaskCtx, ()| {
        assert!(release.wait_for(1), "nothing ever released the helper");
        Vec::new()
    };
    let mut out = WorkerPool::new().map(vec![(), ()], |ctx, ()| match ctx.index {
        0 => inner(ctx, ()),
        _ => hold_slot(ctx, ()),
    });
    assert_eq!(pool_stats().active_extra, 0, "every slot came back");
    out.swap_remove(0)
}

/// `(index, seed)` of every task of the inner map on one thread.
fn reference(n: usize) -> Vec<(usize, u64)> {
    WorkerPool::new()
        .with_seed(INNER_SEED)
        .with_threads(1)
        .map(vec![(); n], |ctx, ()| (ctx.index, ctx.seed))
}

fn ctx_of(seen: &[Seen]) -> Vec<(usize, u64)> {
    seen.iter().map(|s| (s.index, s.seed)).collect()
}

fn threads_of(seen: &[Seen]) -> HashSet<ThreadId> {
    seen.iter().map(|s| s.thread).collect()
}

#[test]
fn inline_map_hands_remaining_items_to_a_freed_helper() {
    let _serial = serial();
    let n = 8;
    // After the first item, and with exactly two items left.
    for k in [0, n - 3] {
        let seen = nested(n, Some(k), None);
        assert_eq!(ctx_of(&seen), reference(n), "hand-over after item {k}");
        let me = std::thread::current().id();
        assert!(
            seen[..=k].iter().all(|s| s.thread == me),
            "items up to {k} ran inline on the caller"
        );
        assert!(
            threads_of(&seen[k + 1..]).len() >= 2,
            "items after {k} ran on one thread: {seen:?}"
        );
    }
}

#[test]
fn inline_map_without_a_free_slot_stays_on_the_caller() {
    let _serial = serial();
    let n = 8;
    let seen = nested(n, None, None);
    assert_eq!(ctx_of(&seen), reference(n));
    assert_eq!(
        threads_of(&seen),
        HashSet::from([std::thread::current().id()])
    );
}

#[test]
fn panic_after_the_hand_over_returns_every_slot() {
    let _serial = serial();
    // Item 0 releases the helper, items 1 and 2 meet on two threads, item
    // 5 panics in the handed-over part of the map.
    let result = catch_unwind(AssertUnwindSafe(|| nested(8, Some(0), Some(5))));
    assert!(result.is_err(), "the inner panic reaches the outer caller");
    assert_eq!(pool_stats().active_extra, 0);
    // The budget still works afterwards.
    assert_eq!(ctx_of(&nested(8, Some(0), None)), reference(8));
}

#[test]
fn a_thousand_nested_maps_leave_the_budget_idle() {
    let _serial = serial();
    set_global_threads(2);
    for round in 0..1000u64 {
        let out = WorkerPool::new().map((0..3u64).collect(), |_, x| {
            WorkerPool::new()
                .map((0..3u64).collect(), move |_, y| round + x * 3 + y)
                .into_iter()
                .sum::<u64>()
        });
        let expected: Vec<u64> = (0..3).map(|x| 3 * round + 9 * x + 3).collect();
        assert_eq!(out, expected);
    }
    assert_eq!(pool_stats().active_extra, 0);
}

#[test]
fn three_levels_of_nesting_finish_on_a_budget_of_two() {
    let _serial = serial();
    set_global_threads(2);
    let out = WorkerPool::new().map((0..4u64).collect(), |_, a| {
        WorkerPool::new()
            .map((0..4u64).collect(), move |_, b| {
                WorkerPool::new()
                    .map((0..4u64).collect(), move |_, c| a * 16 + b * 4 + c)
                    .into_iter()
                    .sum::<u64>()
            })
            .into_iter()
            .sum::<u64>()
    });
    let expected: Vec<u64> = (0..4).map(|a| a * 256 + 96 + 24).collect();
    assert_eq!(out, expected);
    assert_eq!(pool_stats().active_extra, 0);
}

#[test]
fn a_map_short_of_helpers_recruits_one_freed_mid_run() {
    let _serial = serial();
    set_global_threads(3);
    assert_eq!(pool_stats().active_extra, 0, "budget must start idle");
    let n = 8;
    let release = Latch::default();
    let three_threads = Latch::default();
    // The outer map of two items takes one helper for item 1, which holds
    // its slot until `release` opens. Item 0 runs the inner map on the
    // caller: it wants two helpers and gets the one slot left. Inner item
    // 0 frees the outer helper and waits until it has really gone, so the
    // inner caller's next look at the budget is the one that succeeds.
    // Inner items 1, 2 and 3 only finish once they have met on three
    // different threads, which needs that second helper.
    let mut out = WorkerPool::new().map(vec![(), ()], |ctx, ()| {
        if ctx.index == 1 {
            assert!(release.wait_for(1), "nothing ever released the helper");
            return Vec::new();
        }
        WorkerPool::new()
            .with_seed(INNER_SEED)
            .map(vec![(); n], |ctx, ()| {
                if ctx.index == 0 {
                    release.arrive();
                    while pool_stats().active_extra != 1 {
                        std::thread::yield_now();
                    }
                }
                if (1..=3).contains(&ctx.index) {
                    assert!(
                        three_threads.meet(3),
                        "items 1..=3 never ran on three threads"
                    );
                }
                Seen {
                    index: ctx.index,
                    seed: ctx.seed,
                    thread: std::thread::current().id(),
                }
            })
    });
    assert_eq!(pool_stats().active_extra, 0, "every slot came back");
    let seen = out.swap_remove(0);
    assert_eq!(ctx_of(&seen), reference(n));
    assert_eq!(seen[0].thread, std::thread::current().id());
    assert_eq!(threads_of(&seen[1..=3]).len(), 3, "{seen:?}");
}
