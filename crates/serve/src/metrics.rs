//! Per-tenant scoped metrics and epoch-boundary time series — the
//! server's live introspection substrate.
//!
//! The scheduler calls [`ServerMetrics::record_slice`] after every slice
//! and [`ServerMetrics::record_admission_wait`] at every promotion; both
//! record into a [`telemetry::ScopedRegistry`] under the job's
//! `{tenant}` / `{tenant, job}` label sets and append epoch-boundary
//! samples (epoch latency, best score, evals/sec, budget burn-down,
//! cache hit rate) to a bounded [`telemetry::TimeSeriesStore`]. The
//! status server renders the registry as Prometheus text (`/metrics`)
//! and the series into the `/status` JSON.
//!
//! Everything here is observability-only: recording never feeds back
//! into scheduling, so served results stay bit-identical with metrics
//! on or off.

use crate::budget::Budget;
use crate::job::JobId;
use eafe::EpochReport;
use telemetry::{ScopedRegistry, ScopedSnapshot, TimeSeriesStore};

/// Retained epoch-boundary points per series (per job, per signal).
const SERIES_CAP: usize = 256;

/// One slice's worth of observability data, handed to
/// [`ServerMetrics::record_slice`] by the scheduler commit path.
#[derive(Debug, Clone)]
pub(crate) struct SliceSample<'a> {
    /// The sliced job.
    pub id: JobId,
    /// The job's tenant.
    pub tenant: &'a str,
    /// Wall-clock duration of the slice, microseconds.
    pub epoch_us: u64,
    /// The report the slice produced.
    pub report: &'a EpochReport,
    /// The job's budget (for burn-down).
    pub budget: Budget,
    /// Downstream evals performed *by this slice* (cumulative delta).
    pub evals_delta: u64,
    /// Shared score-cache hit rate at the slice boundary.
    pub cache_hit_rate: f64,
}

/// The server's scoped metrics + time series.
#[derive(Debug)]
pub struct ServerMetrics {
    scoped: ScopedRegistry,
    series: TimeSeriesStore,
}

impl Default for ServerMetrics {
    fn default() -> Self {
        ServerMetrics {
            scoped: ScopedRegistry::new(),
            series: TimeSeriesStore::new(SERIES_CAP),
        }
    }
}

impl ServerMetrics {
    /// The scoped registry (for snapshots / Prometheus rendering).
    pub fn scoped(&self) -> &ScopedRegistry {
        &self.scoped
    }

    /// Snapshot every scope, deterministically ordered.
    pub fn snapshot(&self) -> ScopedSnapshot {
        self.scoped.snapshot()
    }

    /// The epoch-boundary time series store.
    pub fn series(&self) -> &TimeSeriesStore {
        &self.series
    }

    /// Record one completed slice into the tenant's scope and the job's
    /// time series.
    pub(crate) fn record_slice(&self, s: &SliceSample<'_>) {
        let tenant = self.scoped.scope(&[("tenant", s.tenant)]);
        tenant.histogram("serve.epoch_us").record(s.epoch_us);
        tenant.counter("serve.epochs").inc();
        tenant.counter("serve.evals").add(s.evals_delta);

        let r = s.report;
        let tick = r.epochs_completed as u64;
        let job = s.id.to_string();
        let remaining =
            s.budget
                .remaining_fraction(r.epochs_completed, r.downstream_evals, r.elapsed_secs);
        let evals_per_sec = if r.elapsed_secs > 0.0 {
            r.downstream_evals as f64 / r.elapsed_secs
        } else {
            0.0
        };
        self.series
            .record(&format!("{job}.epoch_us"), tick, s.epoch_us as f64);
        self.series
            .record(&format!("{job}.best_score"), tick, r.best_score);
        self.series
            .record(&format!("{job}.evals_per_sec"), tick, evals_per_sec);
        self.series
            .record(&format!("{job}.budget_remaining"), tick, remaining);
        self.series
            .record(&format!("{job}.cache_hit_rate"), tick, s.cache_hit_rate);
    }

    /// Record how long a job waited between submission and its first
    /// active slot.
    pub(crate) fn record_admission_wait(&self, tenant_name: &str, wait_us: u64) {
        self.scoped
            .scope(&[("tenant", tenant_name)])
            .histogram("serve.admission_wait_us")
            .record(wait_us);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eafe::SearchStage;

    fn report(epochs: usize, evals: usize, secs: f64, best: f64) -> EpochReport {
        EpochReport {
            stage: SearchStage::Stage2,
            epoch: epochs.saturating_sub(1),
            epochs_completed: epochs,
            base_score: 0.5,
            best_score: best,
            best_features: vec![],
            generated: 0,
            downstream_evals: evals,
            elapsed_secs: secs,
            done: false,
        }
    }

    fn sample<'a>(tenant: &'a str, r: &'a EpochReport, epoch_us: u64) -> SliceSample<'a> {
        SliceSample {
            id: JobId(1),
            tenant,
            epoch_us,
            report: r,
            budget: Budget::epochs(10),
            evals_delta: 2,
            cache_hit_rate: 0.5,
        }
    }

    #[test]
    fn slices_accumulate_per_tenant_and_per_job() {
        let m = ServerMetrics::default();
        let r1 = report(1, 2, 0.5, 0.6);
        let r2 = report(2, 4, 1.0, 0.7);
        m.record_slice(&sample("a", &r1, 100));
        m.record_slice(&sample("a", &r2, 300));

        let snap = m.snapshot();
        let a = snap.get(&[("tenant", "a")]).unwrap();
        assert_eq!(a.counter("serve.epochs"), 2);
        assert_eq!(a.counter("serve.evals"), 4);
        assert_eq!(a.histogram("serve.epoch_us").unwrap().count, 2);

        let best = m.series().get("job-1.best_score").unwrap().points();
        assert_eq!(best.len(), 2);
        assert_eq!(best[1].value, 0.7);
        let burn = m.series().get("job-1.budget_remaining").unwrap().points();
        assert!((burn[0].value - 0.9).abs() < 1e-12);
        assert!((burn[1].value - 0.8).abs() < 1e-12);
    }

    #[test]
    fn prometheus_page_carries_tenant_labels() {
        let m = ServerMetrics::default();
        let r = report(1, 2, 0.5, 0.6);
        m.record_slice(&sample("retail", &r, 100));
        let text = m.snapshot().to_prometheus();
        assert!(text.contains("serve_epochs{tenant=\"retail\"} 1"));
        assert!(text.contains("serve_epoch_us{tenant=\"retail\",quantile=\"0.99\"}"));
    }
}
