//! Process-global distributed-search counters.
//!
//! The `dist` crate's coordinator updates these atomics as it dispatches
//! shards, receives results, and merges cache entries; they live here (a
//! dependency leaf both `dist` and `serve` already sit on) so the serving
//! layer's `/status` and `/metrics` pages can surface cluster activity
//! without depending on the coordinator itself — the same pattern as
//! `tabular::global_frame_stats` for out-of-core residency.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// Snapshot of distributed-search activity since process start, returned
/// by [`global_dist_stats`]. Gauges (`workers_live`) reflect the current
/// state; all other fields are cumulative.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DistStats {
    /// Worker connections currently registered with a coordinator.
    pub workers_live: u64,
    /// Work shards handed to a worker (retries dispatch again).
    pub shards_dispatched: u64,
    /// Work shards whose results were received and merged.
    pub shards_completed: u64,
    /// Work shards re-dispatched after a worker died or misbehaved.
    pub shards_retried: u64,
    /// Protocol bytes written to transports (frames out).
    pub bytes_sent: u64,
    /// Protocol bytes read from transports (frames in).
    pub bytes_received: u64,
    /// Cache entries merged locally from worker results: the entries a
    /// result carried, plus the rank twins its scores were fanned out to.
    pub entries_merged: u64,
    /// Of the entries merged, how many were new to the local caches
    /// (the rest were idempotent replays).
    pub entries_fresh: u64,
    /// Microseconds of coordinator-side wire + merge overhead: dispatch
    /// wave wall-clock beyond the critical-path worker's compute time
    /// (serialization, transport, scheduling) plus snapshot merge time —
    /// the overhead a distributed run pays over solo search.
    pub wire_us: u64,
}

#[derive(Debug, Default)]
pub(crate) struct GlobalDist {
    pub(crate) workers_live: AtomicU64,
    pub(crate) shards_dispatched: AtomicU64,
    pub(crate) shards_completed: AtomicU64,
    pub(crate) shards_retried: AtomicU64,
    pub(crate) bytes_sent: AtomicU64,
    pub(crate) bytes_received: AtomicU64,
    pub(crate) entries_merged: AtomicU64,
    pub(crate) entries_fresh: AtomicU64,
    pub(crate) wire_us: AtomicU64,
}

static GLOBAL: GlobalDist = GlobalDist {
    workers_live: AtomicU64::new(0),
    shards_dispatched: AtomicU64::new(0),
    shards_completed: AtomicU64::new(0),
    shards_retried: AtomicU64::new(0),
    bytes_sent: AtomicU64::new(0),
    bytes_received: AtomicU64::new(0),
    entries_merged: AtomicU64::new(0),
    entries_fresh: AtomicU64::new(0),
    wire_us: AtomicU64::new(0),
};

/// Process-wide distributed-search counters (all zero when no coordinator
/// has run in this process).
pub fn global_dist_stats() -> DistStats {
    DistStats {
        workers_live: GLOBAL.workers_live.load(Ordering::Relaxed),
        shards_dispatched: GLOBAL.shards_dispatched.load(Ordering::Relaxed),
        shards_completed: GLOBAL.shards_completed.load(Ordering::Relaxed),
        shards_retried: GLOBAL.shards_retried.load(Ordering::Relaxed),
        bytes_sent: GLOBAL.bytes_sent.load(Ordering::Relaxed),
        bytes_received: GLOBAL.bytes_received.load(Ordering::Relaxed),
        entries_merged: GLOBAL.entries_merged.load(Ordering::Relaxed),
        entries_fresh: GLOBAL.entries_fresh.load(Ordering::Relaxed),
        wire_us: GLOBAL.wire_us.load(Ordering::Relaxed),
    }
}

/// Mutation surface for the coordinator/transport layer. Free functions
/// (not methods on a handle) so call sites stay one line and the counters
/// stay process-global across however many coordinators a test spawns.
pub mod dist_counters {
    use super::{Ordering, GLOBAL};

    /// A worker connection was registered.
    pub fn worker_up() {
        GLOBAL.workers_live.fetch_add(1, Ordering::Relaxed);
    }

    /// A worker connection was dropped (death or orderly shutdown).
    pub fn worker_down() {
        GLOBAL.workers_live.fetch_sub(1, Ordering::Relaxed);
    }

    /// `n` shards were handed to workers.
    pub fn dispatched(n: u64) {
        GLOBAL.shards_dispatched.fetch_add(n, Ordering::Relaxed);
    }

    /// `n` shard results were received and merged.
    pub fn completed(n: u64) {
        GLOBAL.shards_completed.fetch_add(n, Ordering::Relaxed);
    }

    /// `n` shards were re-dispatched after a worker failure.
    pub fn retried(n: u64) {
        GLOBAL.shards_retried.fetch_add(n, Ordering::Relaxed);
    }

    /// `n` protocol bytes were written to a transport.
    pub fn sent(n: u64) {
        GLOBAL.bytes_sent.fetch_add(n, Ordering::Relaxed);
    }

    /// `n` protocol bytes were read from a transport.
    pub fn received(n: u64) {
        GLOBAL.bytes_received.fetch_add(n, Ordering::Relaxed);
    }

    /// `total` cache entries arrived from a worker, `fresh` of them new.
    pub fn merged(total: u64, fresh: u64) {
        GLOBAL.entries_merged.fetch_add(total, Ordering::Relaxed);
        GLOBAL.entries_fresh.fetch_add(fresh, Ordering::Relaxed);
    }

    /// The coordinator spent `us` microseconds blocked on the wire.
    pub fn wire(us: u64) {
        GLOBAL.wire_us.fetch_add(us, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_into_the_snapshot() {
        let before = global_dist_stats();
        dist_counters::worker_up();
        dist_counters::dispatched(3);
        dist_counters::completed(2);
        dist_counters::retried(1);
        dist_counters::sent(100);
        dist_counters::received(250);
        dist_counters::merged(10, 4);
        dist_counters::wire(7);
        let after = global_dist_stats();
        assert_eq!(after.workers_live, before.workers_live + 1);
        assert_eq!(after.shards_dispatched, before.shards_dispatched + 3);
        assert_eq!(after.shards_completed, before.shards_completed + 2);
        assert_eq!(after.shards_retried, before.shards_retried + 1);
        assert_eq!(after.bytes_sent, before.bytes_sent + 100);
        assert_eq!(after.bytes_received, before.bytes_received + 250);
        assert_eq!(after.entries_merged, before.entries_merged + 10);
        assert_eq!(after.entries_fresh, before.entries_fresh + 4);
        assert_eq!(after.wire_us, before.wire_us + 7);
        dist_counters::worker_down();
        assert_eq!(global_dist_stats().workers_live, before.workers_live);
    }
}
