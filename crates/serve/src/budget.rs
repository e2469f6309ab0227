//! Job budgets: the anytime contract's stopping rule.
//!
//! A budget bounds a job along any combination of three axes — epochs
//! (scheduler slices), downstream evaluations, and compute seconds. The
//! server checks the budget at every epoch boundary, so a job always
//! stops within one slice of exhaustion and its latest [`eafe::EpochReport`]
//! is the best answer the budget could buy (OpenFE-style anytime search).
//!
//! Seconds are *compute* seconds (time inside slices, as accumulated by
//! the search state), not wall-clock time on the server — so a job's
//! budget is not consumed by other tenants' slices, and budget decisions
//! replay identically on resume.

use serde::{Deserialize, Serialize};

/// Resource bounds for one job; `None` on an axis means unbounded.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct Budget {
    /// Maximum scheduler slices (stage-1/seed/stage-2 epochs).
    pub max_epochs: Option<usize>,
    /// Maximum downstream evaluations (the base evaluation counts).
    pub max_evals: Option<usize>,
    /// Maximum compute seconds spent inside slices.
    pub max_secs: Option<f64>,
}

impl Budget {
    /// No bounds: the job runs until the engine itself finishes.
    pub fn unlimited() -> Budget {
        Budget::default()
    }

    /// Bound by scheduler slices only.
    pub fn epochs(n: usize) -> Budget {
        Budget {
            max_epochs: Some(n),
            ..Budget::default()
        }
    }

    /// Bound by downstream evaluations only.
    pub fn evals(n: usize) -> Budget {
        Budget {
            max_evals: Some(n),
            ..Budget::default()
        }
    }

    /// Bound by compute seconds only.
    pub fn secs(s: f64) -> Budget {
        Budget {
            max_secs: Some(s),
            ..Budget::default()
        }
    }

    /// True once the spend on any bounded axis has reached its limit.
    pub fn exhausted(&self, epochs: usize, evals: usize, secs: f64) -> bool {
        self.max_epochs.is_some_and(|m| epochs >= m)
            || self.max_evals.is_some_and(|m| evals >= m)
            || self.max_secs.is_some_and(|m| secs >= m)
    }

    /// Fraction of the budget still unspent — the *minimum* over bounded
    /// axes of `1 - spent/limit`, clamped to `[0, 1]` (the tightest axis
    /// decides, matching [`Budget::exhausted`]). `1.0` when unbounded.
    pub(crate) fn remaining_fraction(&self, epochs: usize, evals: usize, secs: f64) -> f64 {
        let mut frac: f64 = 1.0;
        if let Some(m) = self.max_epochs {
            frac = frac.min(1.0 - epochs as f64 / (m.max(1)) as f64);
        }
        if let Some(m) = self.max_evals {
            frac = frac.min(1.0 - evals as f64 / (m.max(1)) as f64);
        }
        if let Some(m) = self.max_secs {
            frac = frac.min(1.0 - secs / m.max(f64::MIN_POSITIVE));
        }
        frac.clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_exhausts() {
        let b = Budget::unlimited();
        assert!(!b.exhausted(usize::MAX, usize::MAX, f64::MAX));
    }

    #[test]
    fn each_axis_binds_independently() {
        assert!(Budget::epochs(3).exhausted(3, 0, 0.0));
        assert!(!Budget::epochs(3).exhausted(2, 1_000_000, 1e9));
        assert!(Budget::evals(10).exhausted(0, 10, 0.0));
        assert!(!Budget::evals(10).exhausted(1_000, 9, 1e9));
        assert!(Budget::secs(1.5).exhausted(0, 0, 1.5));
        assert!(!Budget::secs(1.5).exhausted(1_000, 1_000_000, 1.49));
    }

    #[test]
    fn combined_budget_stops_at_the_first_exhausted_axis() {
        let b = Budget {
            max_epochs: Some(5),
            max_evals: Some(100),
            max_secs: Some(60.0),
        };
        assert!(b.exhausted(5, 1, 0.1));
        assert!(b.exhausted(1, 100, 0.1));
        assert!(b.exhausted(1, 1, 60.0));
        assert!(!b.exhausted(4, 99, 59.9));
    }

    #[test]
    fn remaining_fraction_tracks_the_tightest_axis() {
        assert_eq!(
            Budget::unlimited().remaining_fraction(1_000, 1_000, 1e9),
            1.0
        );
        assert!((Budget::epochs(10).remaining_fraction(4, 0, 0.0) - 0.6).abs() < 1e-12);
        let b = Budget {
            max_epochs: Some(10),
            max_evals: Some(100),
            max_secs: None,
        };
        // 40% of epochs spent but 90% of evals: evals axis decides.
        assert!((b.remaining_fraction(4, 90, 0.0) - 0.1).abs() < 1e-12);
        // Over-spend clamps to zero rather than going negative.
        assert_eq!(Budget::secs(1.0).remaining_fraction(0, 0, 2.0), 0.0);
    }

    #[test]
    fn budget_round_trips_through_serde() {
        let b = Budget {
            max_epochs: Some(7),
            max_evals: None,
            max_secs: Some(2.5),
        };
        let json = serde_json::to_string(&b).unwrap();
        let back: Budget = serde_json::from_str(&json).unwrap();
        assert_eq!(b, back);
    }
}
