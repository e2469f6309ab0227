//! Shared parallel evaluation runtime for the E-AFE workspace.
//!
//! The paper's Table I observation is that downstream feature evaluation
//! consumes ~90% of every AFE epoch. E-AFE attacks that statistically with
//! the FPE gate; this crate attacks it at the systems level, as the
//! execution substrate every evaluation-heavy path submits work through:
//!
//! 1. **[`pool`]** — a work-stealing thread pool with bounded per-worker
//!    queues. Results are returned in submission order and per-task seeds
//!    depend only on the task index, so parallel runs reproduce
//!    single-threaded results bit-for-bit.
//! 2. **[`cache`]** — a concurrent, content-addressed evaluation cache
//!    mapping a 128-bit [`fingerprint`] of the evaluation inputs to cached
//!    CV scores, with a capacity bound and per-shard hit/miss/insert/evict
//!    counters.
//! 3. **[`seed`]** — deterministic per-task seed derivation (SplitMix64
//!    mixing), so the seed of task *i* is a pure function of
//!    `(root seed, stream, i)` and never of scheduling order.
//! 4. **[`sigcache`]** — a content-addressed cache of weighted-MinHash
//!    signatures keyed by `(column content, family, d, seed)`, so the FPE
//!    gate, labelling, and model selection sketch a distinct column at
//!    most once per family/seed; batch misses are sketched through the
//!    pool with the table-driven kernel.
//! 5. **[`fair`]** — a deterministic round-robin rotation over job keys,
//!    the fair-share slicing policy a multi-tenant server uses to
//!    interleave epoch-granular work on the shared pool.
//!
//! [`Evaluator`] ties the three together: wrap any [`Scorer`] (in
//! practice `learners::Evaluator`) and identical (dataset, learner
//! config, folds, seed) evaluations are served from cache.
//!
//! The runtime is instrumented with the workspace `telemetry` crate:
//! [`WorkerPool::map`] opens a `pool.map` span and every task runs under
//! a `pool.task` span parented to the submitting call (even on worker
//! threads), with `pool.queue_us` / `pool.run_us` / `pool.idle_us`
//! histograms; [`Evaluator::evaluate`] counts cache hits and computed
//! evaluations and times the underlying `score_frame`. All of it is
//! inert (one atomic load per site) until a telemetry sink is installed.
//!
//! # Cache-key fingerprint scheme
//!
//! A cache key is a 128-bit FNV-1a digest over a length-prefixed,
//! domain-tagged encoding of everything that determines a CV score:
//!
//! - the dataset name and shape,
//! - every column name and every value's IEEE-754 bit pattern (so the key
//!   addresses the *content* of the transformation DAG's output, not the
//!   identity of the object holding it — two differently-derived pipelines
//!   producing identical frames share one entry),
//! - the label representation (class indices + class count, or target
//!   bits),
//! - the scorer's config digest (learner kind and hyper-parameters, fold
//!   count, CV seed), provided by [`Scorer::config_digest`].
//!
//! A search probes with frames that share every column but the last;
//! [`FramePrefix`] keeps the hash state after the shared part so
//! [`Evaluator::prefix_key`] hashes only the new column and the label, and
//! returns the same key [`Evaluator::cache_key`] gives the built frame.
//! A caller whose frame lives out of core streams the same bytes through a
//! [`PrefixHasher`] and turns the fingerprint into a key with
//! [`Evaluator::key_of`].
//!
//! **Collision assumptions.** Keys are compared by digest only; the cache
//! stores no payload to verify against. With 128-bit digests, the
//! birthday bound puts the collision probability for a run of `n`
//! distinct evaluations at ~`n²/2¹²⁹` — below 10⁻²⁰ even for a billion
//! evaluations — which we accept. FNV-1a is not adversarially collision
//! resistant; the runtime assumes candidate features are generated by the
//! search process, not chosen by an attacker.

pub mod cache;
pub mod diststats;
pub mod evaluator;
pub mod fair;
pub mod fingerprint;
pub mod pool;
pub mod scratch;
pub mod seed;
pub mod sigcache;

pub use cache::{CacheSnapshot, CacheStats, ScoreCache, ShardStats};
pub use diststats::{dist_counters, global_dist_stats, DistStats};
pub use evaluator::{Evaluator, Scorer};
pub use fair::RoundRobin;
pub use fingerprint::{
    fingerprint_frame, fingerprint_values, Fingerprint, FramePrefix, Hasher128, PrefixHasher,
};
pub use pool::{
    global_threads, pool_stats, set_global_threads, CancelToken, PoolStats, TaskCtx, WorkerPool,
};
pub use scratch::{scratch_f64, scratch_f64_with_capacity, ScratchF64};
pub use seed::derive_seed;
pub use sigcache::{
    compress_normalized_batch, compress_normalized_cached, sig_cache_merge, sig_cache_snapshot,
    sig_cache_snapshot_since, sig_cache_stats, sig_cache_tick, SignatureCache,
};
