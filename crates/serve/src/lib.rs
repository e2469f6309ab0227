//! # serve — feature engineering as a service
//!
//! A long-lived, multi-tenant job server over the E-AFE engine: tenants
//! submit a dataset, an engine configuration, and a [`Budget`]; the
//! server interleaves epoch-granular work slices across all active jobs
//! in deterministic round-robin rotation and streams progressively
//! better weighted feature sets back — the anytime contract. Jobs can be
//! cancelled cooperatively and survive server restarts via
//! checkpoint/resume of the engine's serializable search state.
//!
//! The shared compute substrate (worker-thread budget, content-addressed
//! score cache, MinHash signature cache) is owned once per server, so
//! tenants benefit from each other's evaluations without being able to
//! perturb each other's results: caching is content-addressed and every
//! search's RNG streams are private, so a job's output is bit-identical
//! whether it ran alone or alongside other tenants, uninterrupted or
//! resumed from a checkpoint.
//!
//! ## Quick start
//!
//! ```
//! use serve::{Budget, JobServer, ServerConfig};
//! use tabular::{SynthSpec, Task};
//!
//! let frame = SynthSpec::new("demo", 120, 4, Task::Classification)
//!     .with_seed(1)
//!     .generate()
//!     .unwrap();
//! let server = JobServer::new(ServerConfig::default()).unwrap();
//!
//! let engine = eafe::Engine::nfs(eafe::EafeConfig::fast());
//! let job = server
//!     .submit("tenant-a", &frame, engine, Budget::epochs(2))
//!     .unwrap();
//!
//! let outcome = job.wait().unwrap();
//! let result = outcome.result.unwrap();
//! assert!(result.best_score >= result.base_score);
//! ```
//!
//! ## Module map
//!
//! - `budget` — per-job resource bounds (epochs / evaluations / compute
//!   seconds) and the exhaustion rule;
//! - `job` — job identity, lifecycle states, outcomes, and the
//!   progress-stream wire format;
//! - `server` — the [`JobServer`] itself: a driver thread around the
//!   crate-private `scheduler` core, which makes every admission,
//!   rotation, cancellation and checkpoint decision and keeps each job's
//!   record (its `/status` row and series, from the slices it ran);
//!   resume; the introspection source;
//! - `metrics` — per-tenant labelled metrics ([`ServerMetrics`],
//!   [`ScopedRegistry`]) and the one renderer of the `/metrics` page;
//! - `status` — the opt-in HTTP introspection endpoint (`/metrics`
//!   Prometheus text, `/status` JSON), zero new dependencies.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod budget;
mod error;
mod job;
mod metrics;
mod scheduler;
mod server;
mod status;

pub use budget::Budget;
pub use error::{Result, ServeError};
pub use job::{JobEvent, JobId, JobOutcome, JobStatus};
pub use metrics::{Scope, ScopedRegistry, ServerMetrics};
pub use server::{JobHandle, JobServer, ServerConfig};
pub use status::scrape;

#[cfg(test)]
mod mutate;
