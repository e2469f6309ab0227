//! Shared parallel evaluation runtime for the E-AFE workspace.
//!
//! The paper's Table I observation is that downstream feature evaluation
//! consumes ~90% of every AFE epoch. E-AFE attacks that statistically with
//! the FPE gate; this crate attacks it at the systems level, as the
//! execution substrate every evaluation-heavy path submits work through:
//!
//! 1. **`pool`** — an order-preserving parallel map: one loop in which
//!    the caller and the helper threads the global budget grants claim
//!    items from one shared cursor. Results are returned in submission
//!    order and per-task seeds depend only on the task index, so parallel
//!    runs reproduce single-threaded results bit-for-bit.
//! 2. **`cache`** — a content-addressed evaluation cache: one lock over
//!    one map from a 128-bit `fingerprint` of the evaluation inputs to
//!    cached CV scores, with an exact capacity bound, exact LRU eviction
//!    and hit/miss/insert/evict counters.
//! 3. **`seed`** — deterministic per-task seed derivation (SplitMix64
//!    mixing), so the seed of task *i* is a pure function of
//!    `(root seed, stream, i)` and never of scheduling order.
//! 4. **`sigcache`** — a content-addressed cache of weighted-MinHash
//!    signatures keyed by `(column content, family, d, seed)`, so the FPE
//!    gate, labelling, and model selection sketch a distinct column at
//!    most once per family/seed; batch misses are sketched through the
//!    pool with the table-driven kernel.
//!
//! [`Evaluator`] ties the three together: wrap any [`Scorer`] (in
//! practice `learners::Evaluator`) and identical (dataset, learner
//! config, folds, seed) evaluations are served from cache.
//!
//! The runtime is instrumented with the workspace `telemetry` crate:
//! [`WorkerPool::map`] opens a `pool.map` span and every task runs under
//! a `pool.task` span parented to the submitting call (even on worker
//! threads), with `pool.queue_us` (map start → claim) / `pool.run_us` /
//! `pool.idle_us` histograms; [`Evaluator::evaluate`] counts cache hits and computed
//! evaluations and times the underlying `score_frame`. All of it is
//! inert (one atomic load per site) until a telemetry sink is installed.
//!
//! # Cache-key fingerprint scheme
//!
//! Keys address *content*, not the object holding it — two differently
//! derived pipelines producing identical frames share one entry — and are
//! built in two layers:
//!
//! - **digested once:** a column's values (IEEE-754 bit patterns) and
//!   length go through [`ColumnDigest`] ([`fingerprint_values`] for a slice
//!   in one piece): 128 bits, one 64-bit word per step into two
//!   independently keyed folded-multiply lanes, streamable run by run so a
//!   chunked column and its flat twin share an identity. The score cache,
//!   the signature cache (`sigcache`) and the learners' bin cache all
//!   key a column by it; a frame's label is digested the same way;
//! - **combined:** a score-cache key is byte-wise FNV-1a ([`Hasher128`])
//!   over a length-prefixed, domain-tagged list of identities — dataset
//!   name and row count, the label digest, each column as `(name, column
//!   digest)`, closed by the scorer's config digest (learner kind and
//!   hyper-parameters, fold count, CV seed: [`Scorer::config_digest`],
//!   taken once when an [`Evaluator`] is built).
//!
//! A search probes with frames that share every column but the last.
//! [`KeyPrefix`] is the combine state after the shared columns — label and
//! columns digested once per selection — so [`Evaluator::key_of`] a prefix
//! extended by the candidate's digest costs one candidate digest plus a
//! few dozen bytes of combine, and returns the key
//! [`Evaluator::cache_key`] gives the built frame: the same code run over
//! one more column. [`Evaluator::evaluate_keyed`] then probes by that key
//! and hands a miss the scorer, so the frame need never be built.
//!
//! **Keys are not a format.** They are never persisted (checkpoints carry
//! no cache entries) and cross a process boundary only between a `dist`
//! coordinator and workers of the same build, so changing a hasher moves
//! key values and nothing else: equal keys still mean equal names, bits,
//! label and config, and every hit/miss count stays put. The pinned value
//! is [`fingerprint_frame`], the byte-wise whole-frame digest that result
//! fingerprints are made from; no cache key is.
//!
//! **Collision assumptions.** Keys are compared by digest only; the cache
//! stores no payload to verify against. With 128-bit digests, the
//! birthday bound puts the collision probability for a run of `n`
//! distinct evaluations at ~`n²/2¹²⁹` — below 10⁻²⁰ even for a billion
//! evaluations — which we accept. (A [`ColumnDigest`] lane step is not a
//! bijection: two columns that differ early merge in one lane with
//! probability ≈ 2⁻⁶⁴ per later word, in both with ≈ `(rows · 2⁻⁶⁴)²` —
//! 2⁻⁹⁴ at 10⁵ rows.) Neither hasher is adversarially collision
//! resistant; the runtime assumes candidate features are generated by the
//! search process, not chosen by an attacker.

// ROADMAP 3(a): no `unwrap`/`expect` on the library's paths. A survivor
// carries a local `#[allow]` and the invariant that makes it unreachable.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod cache;
mod diststats;
mod evaluator;
mod fingerprint;
mod pool;
mod scratch;
mod seed;
mod sigcache;

pub use cache::{CacheSnapshot, CacheStats, ScoreCache};
pub use diststats::{dist_counters, global_dist_stats, DistStats};
pub use evaluator::{Evaluator, Scorer, DEFAULT_CACHE_CAPACITY};
pub use fingerprint::{
    fingerprint_frame, fingerprint_values, ColumnDigest, Fingerprint, Hasher128, KeyPrefix,
};
pub use pool::{global_threads, pool_stats, set_global_threads, PoolStats, TaskCtx, WorkerPool};
pub use scratch::{scratch_f64_with_capacity, ScratchF64};
pub use seed::derive_seed;
pub use sigcache::{
    compress_normalized_batch, compress_normalized_cached, prepare_draw_tables, sig_cache_merge,
    sig_cache_snapshot_since, sig_cache_stats, sig_cache_tick,
};

use std::sync::{Mutex, MutexGuard, PoisonError};

/// `m`'s guard, recovering a poisoned lock. Every lock in this crate
/// guards a value its holders change by one std call at a time — a push,
/// a pop, a `HashMap` insert or remove, a store to a field — so a holder
/// that panicked left the value valid.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}
