//! Job identity, lifecycle states, and terminal outcomes.

use eafe::RunResult;
use serde::{Deserialize, Serialize};
use std::fmt;
use tabular::DataFrame;

/// Server-assigned job identifier, unique within one server lifetime
/// (and preserved across checkpoint/resume).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct JobId(pub u64);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job-{}", self.0)
    }
}

/// Where a job is in its lifecycle.
///
/// ```text
/// Queued → Active → {Completed, BudgetExhausted, Cancelled, Failed}
/// ```
///
/// `Queued → Cancelled` is also possible (cancelled before first slice).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobStatus {
    /// Admitted, waiting for an active-slot.
    Queued,
    /// In the scheduler rotation, receiving work slices.
    Active,
    /// The search ran to its natural end (all epochs or early stop).
    Completed,
    /// The budget ran out; the result is the best found within it.
    BudgetExhausted,
    /// Cancelled by the tenant; the result is the best found so far.
    Cancelled,
    /// The engine returned an error (see [`JobOutcome::error`]).
    Failed,
}

impl JobStatus {
    /// True for states a job never leaves.
    pub(crate) fn is_terminal(self) -> bool {
        !matches!(self, JobStatus::Queued | JobStatus::Active)
    }
}

/// The terminal report for a job. Even cancelled and budget-exhausted
/// jobs carry a result when at least one slice ran — the anytime
/// contract means "stopped early" still yields the best-so-far feature
/// set, not nothing.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// The job this outcome belongs to.
    pub id: JobId,
    /// The submitting tenant.
    pub tenant: String,
    /// Terminal status (always a terminal one here).
    pub status: JobStatus,
    /// Scheduler slices the job received.
    pub epochs: usize,
    /// The instrumented run result (absent only when the job failed or
    /// was cancelled before its first slice).
    pub result: Option<RunResult>,
    /// The engineered frame: original features plus accepted generated
    /// features (present whenever `result` is).
    pub engineered: Option<DataFrame>,
    /// Engine error message when `status` is [`JobStatus::Failed`].
    pub error: Option<String>,
}

/// One message on a job's progress stream.
#[derive(Debug, Clone)]
pub enum JobEvent {
    /// A work slice finished; here is the (monotone) best-so-far report.
    Epoch(eafe::EpochReport),
    /// The job reached a terminal state; no further events follow.
    Done(Box<JobOutcome>),
}

/// Encode an [`eafe::EpochReport`] as a telemetry [`telemetry::Event`] —
/// the same JSON-lines wire format bench trace files use, so any
/// existing `Event::from_json` consumer can tail a job's progress feed.
///
/// The span is named `serve.epoch`; its numeric fields carry the budget
/// spend and best-so-far score, and each accepted feature appears as a
/// `feature:<expression>` field whose value is the feature's weight
/// (downstream score gain at acceptance).
pub(crate) fn progress_event(id: JobId, r: &eafe::EpochReport) -> telemetry::Event {
    let stage = match r.stage {
        eafe::SearchStage::Stage1 => 1.0,
        eafe::SearchStage::Seed => 1.5,
        eafe::SearchStage::Stage2 => 2.0,
    };
    let mut fields = vec![
        ("job".to_string(), id.0 as f64),
        ("stage".to_string(), stage),
        ("epoch".to_string(), r.epoch as f64),
        ("epochs_completed".to_string(), r.epochs_completed as f64),
        ("base_score".to_string(), r.base_score),
        ("best_score".to_string(), r.best_score),
        ("generated".to_string(), r.generated as f64),
        ("downstream_evals".to_string(), r.downstream_evals as f64),
        ("done".to_string(), if r.done { 1.0 } else { 0.0 }),
    ];
    for feat in &r.best_features {
        fields.push((format!("feature:{}", feat.name), feat.weight));
    }
    telemetry::Event::Span(telemetry::SpanEvent {
        name: "serve.epoch".to_string(),
        id: r.epochs_completed.max(1) as u64,
        parent: 0,
        start_us: 0,
        dur_us: (r.elapsed_secs * 1e6) as u64,
        fields,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_id_displays_and_round_trips() {
        let id = JobId(42);
        assert_eq!(id.to_string(), "job-42");
        let json = serde_json::to_string(&id).unwrap();
        let back: JobId = serde_json::from_str(&json).unwrap();
        assert_eq!(id, back);
    }

    #[test]
    fn terminality_matches_the_lifecycle() {
        assert!(!JobStatus::Queued.is_terminal());
        assert!(!JobStatus::Active.is_terminal());
        for s in [
            JobStatus::Completed,
            JobStatus::BudgetExhausted,
            JobStatus::Cancelled,
            JobStatus::Failed,
        ] {
            assert!(s.is_terminal(), "{s:?}");
        }
    }
}
