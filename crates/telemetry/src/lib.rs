//! Structured tracing, metrics, and per-phase profiling for the E-AFE
//! evaluation runtime.
//!
//! Three pieces, designed to stay out of the way until switched on:
//!
//! - **Spans** ([`span`], [`SpanGuard`]): RAII guards that record
//!   monotonic-clock durations with hierarchical parentage, including
//!   across `runtime::WorkerPool` task boundaries via [`current_span`] +
//!   [`parent_scope`].
//! - **Metrics** ([`global`], [`Registry`]): named monotonic [`Counter`]s
//!   and log-scale [`Histogram`]s with exact totals, snapshotted into the
//!   bench artifact envelope.
//! - **Sinks** ([`install`], [`Sink`]): a process-global consumer of the
//!   [`Event`] stream — [`MemorySink`] for the end-of-run [`Summary`],
//!   [`JsonLinesSink`] for `--trace-out` files and live progress feeds,
//!   and [`FanoutSink`] for both.
//!
//! # Zero cost when disabled
//!
//! All instrumentation funnels through [`enabled`], one relaxed atomic
//! load. With no sink installed, [`span`] allocates no id and never reads
//! the clock, and [`count`]/[`record`] return immediately — verified by
//! the crate's overhead smoke test.
//!
//! # Typical use
//!
//! ```
//! use std::sync::Arc;
//!
//! let collector = Arc::new(telemetry::MemorySink::new());
//! telemetry::install(collector.clone());
//!
//! {
//!     let mut s = telemetry::span("engine.epoch");
//!     s.field("epoch", 0.0);
//!     telemetry::count("evals", 3);
//!     telemetry::record("queue_us", 12);
//! }
//!
//! telemetry::uninstall();
//! let summary = telemetry::Summary::from_events(&collector.events());
//! assert_eq!(summary.row("engine.epoch").unwrap().count, 1);
//! assert_eq!(telemetry::global().snapshot().counter("evals"), 3);
//! ```

#![warn(missing_docs)]
// No `unwrap`/`expect` on the library's paths. A survivor carries a local
// `#[allow]` and the invariant that makes it unreachable.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod event;
mod metrics;
mod sink;
mod span;
mod summary;

pub use event::{CountEvent, Event, SpanEvent};
pub use metrics::{Counter, Histogram, HistogramSnapshot, Registry, RegistrySnapshot};
pub use sink::{
    emit, enabled, flush, install, uninstall, FanoutSink, JsonLinesSink, MemorySink, Sink,
};
pub use span::{current_span, parent_scope, span, ParentScope, SpanGuard, SpanId};
pub use summary::{SpanRow, Summary};

use std::sync::{LockResult, OnceLock, PoisonError};

/// The guard `r` holds, recovering a poisoned lock. Every lock in this
/// crate guards a value its holders change by one std call at a time — a
/// map insert or clear, a swap of the sink slot, a line written to a trace
/// stream — so a holder that panicked left the value valid.
pub(crate) fn recover<G>(r: LockResult<G>) -> G {
    r.unwrap_or_else(PoisonError::into_inner)
}

/// The process-global metrics registry.
///
/// Shared by every instrumented crate; bench bins snapshot it at
/// end-of-run. Unlike the event stream it accumulates even while no sink
/// is installed *if* callers bypass the [`count`]/[`record`] helpers and
/// hold metric handles directly — the helpers themselves are gated on
/// [`enabled`].
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// Add `n` to the global counter `name` (no-op while telemetry is
/// disabled).
#[inline]
pub fn count(name: &str, n: u64) {
    if enabled() {
        global().counter(name).add(n);
    }
}

/// Record one sample into the global histogram `name` (no-op while
/// telemetry is disabled).
#[inline]
pub fn record(name: &str, v: u64) {
    if enabled() {
        global().histogram(name).record(v);
    }
}
