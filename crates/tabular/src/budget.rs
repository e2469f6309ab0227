//! Resident-memory budgeting for chunked frames.
//!
//! A [`FrameBudget`] caps the decoded + encoded bytes a [`ChunkedFrame`](crate::chunk::ChunkedFrame)
//! (see [`crate::chunk`]) may keep resident in RAM. When an insert or a
//! load pushes the frame over budget, the least-recently-used resident
//! chunks are spilled to the frame's [`ColumnStore`](crate::store::ColumnStore)
//! (if not already persisted) and then evicted, so the working set tracks
//! access order rather than dataset size.
//!
//! The module also keeps process-global chunk-traffic counters
//! ([`global_frame_stats`]) so observability surfaces (the serve crate's
//! `/status` page, bench `--metrics` blocks) can report chunk residency and
//! spill/evict traffic without holding a reference to any particular frame.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// Cap on the bytes a chunked frame may keep resident in RAM.
///
/// The budget covers the heap bytes of resident [`ChunkEncoding`](crate::chunk::ChunkEncoding)s
/// (dictionaries + codes, or raw `f64` payloads for high-cardinality
/// chunks) — it does not count transient decode scratch owned by callers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FrameBudget {
    /// Maximum resident bytes; `u64::MAX` means unbounded.
    pub resident_bytes: u64,
}

impl FrameBudget {
    /// No cap: chunks stay resident forever (in-RAM behaviour).
    pub fn unbounded() -> Self {
        FrameBudget {
            resident_bytes: u64::MAX,
        }
    }

    /// A cap of `mib` mebibytes.
    pub fn from_mib(mib: u64) -> Self {
        FrameBudget {
            resident_bytes: mib.saturating_mul(1024 * 1024),
        }
    }

    /// A cap in raw bytes.
    pub fn from_bytes(bytes: u64) -> Self {
        FrameBudget {
            resident_bytes: bytes,
        }
    }
}

impl Default for FrameBudget {
    fn default() -> Self {
        FrameBudget::unbounded()
    }
}

/// Snapshot of chunk residency and traffic, either for one frame
/// ([`ChunkedFrame::stats`](crate::chunk::ChunkedFrame::stats)) or for the
/// whole process ([`global_frame_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FrameStats {
    /// Chunks currently resident in RAM.
    pub chunks_resident: u64,
    /// Bytes currently resident in RAM (encoded form).
    pub resident_bytes: u64,
    /// Cumulative chunks written to the backing store by budget pressure.
    pub chunks_spilled: u64,
    /// Cumulative chunks whose RAM copy was dropped by budget pressure.
    pub chunks_evicted: u64,
    /// Cumulative chunks re-read from the backing store after eviction.
    pub chunks_loaded: u64,
    /// Cumulative chunk decodes (codes → `f64` scratch).
    pub chunks_decoded: u64,
}

/// Process-global atomic counters behind [`global_frame_stats`].
#[derive(Debug, Default)]
pub(crate) struct GlobalStats {
    pub(crate) resident: AtomicU64,
    pub(crate) resident_bytes: AtomicU64,
    pub(crate) spilled: AtomicU64,
    pub(crate) evicted: AtomicU64,
    pub(crate) loaded: AtomicU64,
    pub(crate) decoded: AtomicU64,
}

pub(crate) static GLOBAL: GlobalStats = GlobalStats {
    resident: AtomicU64::new(0),
    resident_bytes: AtomicU64::new(0),
    spilled: AtomicU64::new(0),
    evicted: AtomicU64::new(0),
    loaded: AtomicU64::new(0),
    decoded: AtomicU64::new(0),
};

/// Process-wide chunk residency/traffic counters, aggregated over every
/// live [`ChunkedFrame`](crate::chunk::ChunkedFrame)(crate::chunk::ChunkedFrame). Gauges
/// (`chunks_resident`, `resident_bytes`) reflect the current state;
/// the remaining fields are cumulative since process start.
pub fn global_frame_stats() -> FrameStats {
    FrameStats {
        chunks_resident: GLOBAL.resident.load(Ordering::Relaxed),
        resident_bytes: GLOBAL.resident_bytes.load(Ordering::Relaxed),
        chunks_spilled: GLOBAL.spilled.load(Ordering::Relaxed),
        chunks_evicted: GLOBAL.evicted.load(Ordering::Relaxed),
        chunks_loaded: GLOBAL.loaded.load(Ordering::Relaxed),
        chunks_decoded: GLOBAL.decoded.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_constructors() {
        assert_eq!(FrameBudget::unbounded().resident_bytes, u64::MAX);
        assert_eq!(FrameBudget::default(), FrameBudget::unbounded());
        assert_eq!(FrameBudget::from_mib(2).resident_bytes, 2 * 1024 * 1024);
        assert_eq!(FrameBudget::from_bytes(7).resident_bytes, 7);
    }

    #[test]
    fn global_stats_snapshot_is_consistent() {
        let s = global_frame_stats();
        // Monotone counters can only grow between snapshots.
        let t = global_frame_stats();
        assert!(t.chunks_spilled >= s.chunks_spilled);
        assert!(t.chunks_loaded >= s.chunks_loaded);
    }
}
