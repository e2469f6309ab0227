//! Distributed E-AFE search: a coordinator/worker protocol that shards
//! the compute-heavy 90% of every epoch — candidate evaluation — across
//! worker processes without giving up bitwise determinism.
//!
//! # Design: speculative cache warming
//!
//! E-AFE's search is sequential at heart: every policy step draws from
//! RNG streams whose order the paper's method fixes, so naively farming
//! out *the search itself* would change results with worker count. The
//! coordinator therefore runs the one authoritative sequential search
//! locally and uses workers only to **warm content-addressed caches**
//! ahead of it:
//!
//! 1. Before each [`eafe::Engine::step`] slice, the coordinator replays
//!    the slice's candidate generation from cloned state
//!    ([`eafe::Engine::speculate_fpe_columns`] /
//!    [`eafe::Engine::speculate_evals`]) to predict the columns the slice
//!    will FPE-score and the evaluations it will ask of the downstream
//!    evaluator — the latter against the search's own
//!    [`eafe::Selection`], bins included.
//! 2. It drops what its caches already hold and, for a binned forest,
//!    every **rank twin**: a candidate whose rank key
//!    ([`eafe::Selection::rank_key`] — the selection's rank identities
//!    plus the candidate's) an earlier candidate of the run already has.
//!    `ln(|x|+1)`, `√|x|` and `x·x` of one parent are one evaluation.
//! 3. It shards the rest across workers: round A warms weighted-MinHash
//!    signatures (the FPE gate's input), round B warms downstream CV
//!    scores. Shard *i* always holds tasks `i, i+n, i+2n, …` and carries
//!    the ticket seed `derive_seed(root, STREAM_WORKER, i)`.
//! 4. Workers execute shards as **pure functions** — score a frame,
//!    sketch a column — and return fingerprint-keyed cache snapshots
//!    ([`runtime::CacheSnapshot`]).
//! 5. The coordinator merges results in ascending shard-index order into
//!    its local caches, gives every twin its representative's score under
//!    the twin's own key, then runs the real `step`, which hits warm
//!    entries instead of recomputing.
//!
//! Because the caches are content-addressed and only ever *short-circuit
//! recomputation* — they can never change a score — a merged entry is
//! either exactly what the sequential search would have computed (and is
//! served as a hit) or is never looked up. A twin's entry is the same
//! `f64` its own evaluation would produce, because a binned forest reads
//! a column only through its bin codes (the CV memo's premise, which
//! debug builds assert on every memo hit). That gives the determinism
//! contract for free: **solo ≡ 1 worker ≡ N workers, bitwise**, and a
//! worker crash mid-shard degrades throughput, never correctness. The
//! coordinator reassigns a dead worker's shard to a live one; replayed
//! results deduplicate at two levels (completed-shard tickets, then
//! idempotent fingerprint merge). With zero live workers the dispatch
//! rounds are skipped entirely and the run degrades to plain solo search.
//!
//! Speculation accuracy bounds the speedup, not the answer: stage-1
//! prediction is exact (within an epoch, generation never consumes FPE
//! feedback), stage-2 prediction is exact up to the slice's first
//! acceptance (an acceptance re-bases later candidates, which then miss
//! and are computed locally).
//!
//! # The wire names columns by identity
//!
//! An `Eval` shard carries the selected frame and its candidates, and
//! consecutive shards to one worker share almost all of them. Each end of
//! a connection remembers the columns of the last `Eval` shard that
//! crossed it; a later shard writes a remembered column as its name and
//! value digest, so a column crosses a connection as values once. `Hello`
//! forgets everything, `Fpe` shards leave the set alone, and a reference
//! the worker does not hold is a typed error the coordinator handles like
//! any dead worker. See [`protocol`].
//!
//! # Layout
//!
//! - [`protocol`] — message types and the length-prefixed JSON frame
//!   codec, with the per-connection remembered columns.
//! - `transport` — the [`Transport`] trait, TCP via `std::net`, and an
//!   in-process loopback pair (still encodes/decodes real bytes) for tests.
//! - `worker` — the worker serve loop: `Hello` installs an engine,
//!   `Work` shards execute, `Bye` exits.
//! - `coordinator` — rank-twin dedup, shard construction, wave dispatch,
//!   crash reassignment, deterministic merge and twin fan-out, and the
//!   driving run loop.
//!
//! Protocol activity is observable through `runtime::global_dist_stats()`
//! (surfaced on the serve `/status` and `/metrics` pages) and the
//! `dist.*` telemetry counters/histograms (`dist.evals_dispatched` counts
//! the evaluations handed out). See DESIGN.md §15 for the frame format
//! and the idempotency argument.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod coordinator;
pub mod protocol;
mod transport;
mod worker;

pub use coordinator::Coordinator;
pub use protocol::{Msg, ShardTasks, WorkShard};
pub use transport::{loopback_pair, LoopbackTransport, TcpTransport, Transport};
pub use worker::Worker;

/// Errors surfaced by the distribution layer.
#[derive(Debug)]
pub enum DistError {
    /// Transport I/O failed (connection reset, listener gone, …).
    Io(std::io::Error),
    /// A frame failed to encode/decode or exceeded the size limit.
    Codec(String),
    /// A peer violated the protocol (unexpected message, missing Hello).
    Protocol(String),
    /// The sequential search itself failed on the coordinator.
    Engine(eafe::EafeError),
    /// A worker-side task (evaluation, sketch) failed.
    Task(String),
}

impl std::fmt::Display for DistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DistError::Io(e) => write!(f, "transport i/o: {e}"),
            DistError::Codec(m) => write!(f, "frame codec: {m}"),
            DistError::Protocol(m) => write!(f, "protocol violation: {m}"),
            DistError::Engine(e) => write!(f, "engine: {e}"),
            DistError::Task(m) => write!(f, "worker task: {m}"),
        }
    }
}

impl std::error::Error for DistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DistError::Io(e) => Some(e),
            DistError::Engine(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for DistError {
    fn from(e: std::io::Error) -> Self {
        DistError::Io(e)
    }
}

impl From<eafe::EafeError> for DistError {
    fn from(e: eafe::EafeError) -> Self {
        DistError::Engine(e)
    }
}

pub type Result<T> = std::result::Result<T, DistError>;
