//! The job server's decisions, as a plain value: the job table, the
//! admission queue and the fair rotation, with one method per decision.
//!
//! [`Scheduler`] takes no lock, spawns no thread, does no I/O and reads no
//! clock — time is an argument — so a test can drive it slice by slice
//! and every outcome is a function of the call sequence. The
//! [`JobServer`](crate::JobServer) keeps one behind a mutex and runs a
//! thread that asks it for the next slice, runs that slice outside the
//! lock, and commits the result back:
//!
//! ```text
//! admit → queued ─(next_slice: promote while a slot is free)→ rotation
//!       → next_slice picks → [driver: run_slice] → commit → rotation | terminal
//! ```

use crate::budget::Budget;
use crate::error::{Result, ServeError};
use crate::job::{JobEvent, JobId, JobOutcome, JobStatus};
use eafe::{Engine, EpochReport, SearchState};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};
use std::sync::mpsc::Sender;
use std::sync::Arc;
use std::time::Instant;
use tabular::DataFrame;
use telemetry::JsonLinesSink;

/// A job's progress feed (`<feed_dir>/job-<id>.jsonl`).
pub(crate) type Feed = Option<Arc<JsonLinesSink>>;

/// Versioned on-disk form of one job.
#[derive(Serialize, Deserialize)]
pub(crate) struct JobCheckpoint {
    version: u32,
    pub(crate) id: u64,
    pub(crate) tenant: String,
    pub(crate) engine: Engine,
    pub(crate) budget: Budget,
    /// Search state for started jobs (owns its sanitized frame).
    pub(crate) state: Option<SearchState>,
    /// Submitted frame for jobs that never received a slice.
    pub(crate) frame: Option<DataFrame>,
}

/// 4: `state` holds the base frame and lineages (agent, operator,
/// parents) for every accepted member and every replayed candidate, and
/// no generated column: decoding makes each member again from its lineage.
const CHECKPOINT_VERSION: u32 = 4;

impl JobCheckpoint {
    /// Decode a checkpoint file's bytes; the error names what is wrong
    /// with them.
    pub(crate) fn parse(bytes: &[u8]) -> std::result::Result<JobCheckpoint, String> {
        let text = std::str::from_utf8(bytes).map_err(|e| format!("not UTF-8: {e}"))?;
        let cp: JobCheckpoint = serde_json::from_str(text).map_err(|e| e.to_string())?;
        if cp.version != CHECKPOINT_VERSION {
            return Err(format!("unsupported checkpoint version {}", cp.version));
        }
        Ok(cp)
    }
}

/// Slices a job keeps on record for its `/status` series: the newest 256.
const SLICES_KEPT: usize = 256;

/// A job's cumulative figures, as its `/status` row shows them.
#[derive(Clone, Copy, Default)]
struct Progress {
    epochs_completed: usize,
    base_score: f64,
    best_score: f64,
    downstream_evals: usize,
    elapsed_secs: f64,
}

impl Progress {
    fn of_report(r: &EpochReport) -> Progress {
        Progress {
            epochs_completed: r.epochs_completed,
            base_score: r.base_score,
            best_score: r.best_score,
            downstream_evals: r.downstream_evals,
            elapsed_secs: r.elapsed_secs,
        }
    }

    fn of_state(s: &SearchState) -> Progress {
        Progress {
            epochs_completed: s.epochs_completed(),
            base_score: s.base_score(),
            best_score: s.best_score(),
            downstream_evals: s.downstream_evals(),
            elapsed_secs: s.elapsed_secs(),
        }
    }

    fn budget_remaining(&self, budget: &Budget) -> f64 {
        budget.remaining_fraction(
            self.epochs_completed,
            self.downstream_evals,
            self.elapsed_secs,
        )
    }
}

/// One slice this server ran for a job: the figures its report left, and
/// what the driver measured around it.
struct SliceRecord {
    progress: Progress,
    /// Wall time of the slice, microseconds.
    epoch_us: u64,
    /// The shared score cache's hit rate when the slice ended.
    cache_hit_rate: f64,
}

/// The series each job has on the `/status` page (`job-N.<signal>`), in
/// the order [`SliceRecord::signals`] samples them.
const SIGNALS: [&str; 5] = [
    "epoch_us",
    "best_score",
    "evals_per_sec",
    "budget_remaining",
    "cache_hit_rate",
];

impl SliceRecord {
    /// The value of each of [`SIGNALS`] after this slice, for a job
    /// under `budget`.
    fn signals(&self, budget: &Budget) -> [f64; 5] {
        let p = &self.progress;
        let evals_per_sec = if p.elapsed_secs > 0.0 {
            p.downstream_evals as f64 / p.elapsed_secs
        } else {
            0.0
        };
        [
            self.epoch_us as f64,
            p.best_score,
            evals_per_sec,
            p.budget_remaining(budget),
            self.cache_hit_rate,
        ]
    }
}

/// One point of a `/status` series: a job's `epochs_completed` after a
/// slice, and the value sampled there.
#[derive(Serialize)]
pub(crate) struct Point {
    tick: u64,
    value: f64,
}

/// One job's row on the `/status` page.
#[derive(Serialize)]
pub(crate) struct JobRow {
    id: String,
    tenant: String,
    status: JobStatus,
    epochs_completed: usize,
    base_score: f64,
    best_score: f64,
    downstream_evals: usize,
    elapsed_secs: f64,
    budget_remaining: f64,
}

/// One entry of the job table.
pub(crate) struct Job {
    tenant: String,
    engine: Arc<Engine>,
    /// Submitted frame; taken by the first slice (the search state owns
    /// its own sanitized copy from then on).
    frame: Option<DataFrame>,
    budget: Budget,
    status: JobStatus,
    /// Present between slices once started; taken while a slice runs.
    state: Option<SearchState>,
    cancelled: bool,
    /// Dropped at shutdown so blocked [`JobHandle::wait`] callers
    /// observe the disconnect instead of hanging forever.
    ///
    /// [`JobHandle::wait`]: crate::JobHandle::wait
    events: Option<Sender<JobEvent>>,
    feed: Feed,
    /// The figures before the first slice this server ran: zero, or those
    /// of the search state the job was restored from.
    start: Progress,
    /// The newest [`SLICES_KEPT`] slices this server ran, oldest first.
    slices: VecDeque<SliceRecord>,
}

impl Job {
    /// A queued job that starts from `frame`, or resumes from `state`.
    pub(crate) fn new(
        tenant: String,
        engine: Arc<Engine>,
        budget: Budget,
        frame: Option<DataFrame>,
        state: Option<SearchState>,
        events: Sender<JobEvent>,
    ) -> Job {
        Job {
            tenant,
            engine,
            frame,
            budget,
            status: JobStatus::Queued,
            start: state
                .as_ref()
                .map_or_else(Progress::default, Progress::of_state),
            state,
            cancelled: false,
            events: Some(events),
            feed: None,
            slices: VecDeque::new(),
        }
    }

    /// The job's figures after its newest slice.
    fn progress(&self) -> Progress {
        self.slices.back().map_or(self.start, |s| s.progress)
    }
}

/// Everything a slice needs, moved out of the job table while it runs.
pub(crate) struct Slice {
    pub(crate) id: JobId,
    pub(crate) tenant: String,
    pub(crate) engine: Arc<Engine>,
    pub(crate) state: Option<SearchState>,
    pub(crate) frame: Option<DataFrame>,
    pub(crate) budget: Budget,
    pub(crate) cancelled: bool,
    pub(crate) events: Option<Sender<JobEvent>>,
    pub(crate) feed: Feed,
}

/// What became of a slice.
pub(crate) enum SliceEnd {
    /// Put the state back; the job stays in the rotation.
    Continue(Box<SearchState>),
    /// The job is finished (one way or another).
    Terminal(Box<JobOutcome>),
}

/// `(tenant, µs spent queued)` for every job a [`Scheduler::next_slice`]
/// promoted into the rotation.
pub(crate) type AdmissionWaits = Vec<(String, u64)>;

/// The job table and every scheduling decision made over it.
pub(crate) struct Scheduler {
    jobs: BTreeMap<JobId, Job>,
    /// Active jobs, in fair rotation: the front runs next, then goes to
    /// the back.
    rotation: VecDeque<JobId>,
    /// Admitted jobs waiting for an active slot, with their admission time.
    queued: VecDeque<(JobId, Instant)>,
    next_id: u64,
    /// Job currently being sliced (its `state` is taken).
    in_flight: Option<JobId>,
    /// A checkpoint waits for the slice in flight: pick nothing until it
    /// has its snapshot.
    checkpoint_wanted: bool,
    shutdown: bool,
    max_active: usize,
    max_queued: usize,
}

impl Scheduler {
    /// An empty table: at most `max_active` jobs in the rotation (at least
    /// one) and `max_queued` waiting for a slot.
    pub(crate) fn new(max_active: usize, max_queued: usize) -> Scheduler {
        Scheduler {
            jobs: BTreeMap::new(),
            rotation: VecDeque::new(),
            queued: VecDeque::new(),
            next_id: 1,
            in_flight: None,
            checkpoint_wanted: false,
            shutdown: false,
            max_active: max_active.max(1),
            max_queued,
        }
    }

    /// Admit `job` at `now`. A new submission (`id` is `None`) is refused
    /// once the server is stopped or the queue holds `max_queued` jobs,
    /// and takes the next id; a job restored from a checkpoint keeps its
    /// id and is refused only as a duplicate or as the last id there is.
    /// `open_feed` gives the job its progress feed once the id is
    /// decided; a refusal opens none and spends no id.
    pub(crate) fn admit(
        &mut self,
        id: Option<JobId>,
        mut job: Job,
        now: Instant,
        open_feed: impl FnOnce(JobId) -> Result<Feed>,
    ) -> Result<JobId> {
        if self.shutdown {
            return Err(ServeError::ServerStopped);
        }
        let id = match id {
            Some(id) if self.jobs.contains_key(&id) => {
                return Err(ServeError::Corrupt(format!("two checkpoints of {id}")))
            }
            Some(id) => id,
            None if self.queued.len() >= self.max_queued => {
                return Err(ServeError::QueueFull {
                    capacity: self.max_queued,
                })
            }
            None => JobId(self.next_id),
        };
        let after = id
            .0
            .checked_add(1)
            .ok_or_else(|| ServeError::Corrupt(format!("{id} leaves no id for the next job")))?;
        job.feed = open_feed(id)?;
        self.next_id = self.next_id.max(after);
        self.jobs.insert(id, job);
        self.queued.push_back((id, now));
        Ok(id)
    }

    /// The next slice to run, with the admission waits of the jobs
    /// promoted to make it: queued jobs fill free rotation slots in
    /// admission order, then the rotation picks. `None` while a slice is
    /// in flight, while a checkpoint waits for one, or when no job is
    /// runnable; `ServerStopped` once the server is shutting down.
    pub(crate) fn next_slice(&mut self, now: Instant) -> Result<Option<(Slice, AdmissionWaits)>> {
        if self.shutdown {
            return Err(ServeError::ServerStopped);
        }
        if self.in_flight.is_some() || self.checkpoint_wanted {
            return Ok(None);
        }
        let mut waits = AdmissionWaits::new();
        while self.rotation.len() < self.max_active {
            let Some((id, at)) = self.queued.pop_front() else {
                break;
            };
            if let Some(job) = self.jobs.get_mut(&id) {
                job.status = JobStatus::Active;
                let wait = now.saturating_duration_since(at);
                waits.push((job.tenant.clone(), wait.as_micros() as u64));
                self.rotation.push_back(id);
            }
        }
        let Some(id) = self.rotation.pop_front() else {
            return Ok(None);
        };
        self.rotation.push_back(id);
        let job = self.jobs.get_mut(&id).ok_or(ServeError::UnknownJob(id))?;
        self.in_flight = Some(id);
        let slice = Slice {
            id,
            tenant: job.tenant.clone(),
            engine: Arc::clone(&job.engine),
            state: job.state.take(),
            frame: job.frame.take(),
            budget: job.budget,
            cancelled: job.cancelled,
            events: job.events.clone(),
            feed: job.feed.clone(),
        };
        Ok(Some((slice, waits)))
    }

    /// Take back the slice of job `id`: its state returns to the table,
    /// or it leaves the rotation with a terminal outcome, which is
    /// returned. A slice that stepped the engine goes on the job's record
    /// with its `report`, its wall time `epoch_us` and the shared cache's
    /// `cache_hit_rate`; the second value is how many downstream
    /// evaluations it added to the job's previous figures.
    pub(crate) fn commit(
        &mut self,
        id: JobId,
        end: SliceEnd,
        report: Option<&EpochReport>,
        epoch_us: u64,
        cache_hit_rate: f64,
    ) -> (Option<Box<JobOutcome>>, u64) {
        if self.in_flight == Some(id) {
            self.in_flight = None;
        }
        let Some(job) = self.jobs.get_mut(&id) else {
            return (None, 0);
        };
        let evals_delta = report.map_or(0, |r| {
            let prev = job.progress().downstream_evals;
            if job.slices.len() == SLICES_KEPT {
                job.slices.pop_front();
            }
            job.slices.push_back(SliceRecord {
                progress: Progress::of_report(r),
                epoch_us,
                cache_hit_rate,
            });
            r.downstream_evals.saturating_sub(prev) as u64
        });
        match end {
            SliceEnd::Continue(state) => {
                job.state = Some(*state);
                (None, evals_delta)
            }
            SliceEnd::Terminal(outcome) => {
                self.rotation.retain(|&active| active != id);
                job.status = outcome.status;
                job.state = None;
                job.frame = None;
                (Some(outcome), evals_delta)
            }
        }
    }

    /// Request cooperative cancellation: the job's next slice finishes it
    /// with its best-so-far result instead of stepping.
    pub(crate) fn cancel(&mut self, id: JobId) -> Result<()> {
        let job = self.jobs.get_mut(&id).ok_or(ServeError::UnknownJob(id))?;
        job.cancelled = true;
        Ok(())
    }

    /// A job's lifecycle state.
    pub(crate) fn status(&self, id: JobId) -> Result<JobStatus> {
        self.jobs
            .get(&id)
            .map(|j| j.status)
            .ok_or(ServeError::UnknownJob(id))
    }

    /// A consistent snapshot of every non-terminal job. While a slice is
    /// in flight its job's state is out of the table, so this returns
    /// `None` and holds the rotation: the next [`next_slice`] picks
    /// nothing until a call here has taken the snapshot. After shutdown
    /// nothing more commits, and a job whose slice never did is left out.
    ///
    /// [`next_slice`]: Scheduler::next_slice
    pub(crate) fn checkpoints(&mut self) -> Option<Vec<JobCheckpoint>> {
        if self.in_flight.is_some() && !self.shutdown {
            self.checkpoint_wanted = true;
            return None;
        }
        self.checkpoint_wanted = false;
        let snapshot = self
            .jobs
            .iter()
            .filter(|(id, job)| !job.status.is_terminal() && self.in_flight != Some(**id))
            .map(|(id, job)| JobCheckpoint {
                version: CHECKPOINT_VERSION,
                id: id.0,
                tenant: job.tenant.clone(),
                engine: (*job.engine).clone(),
                budget: job.budget,
                state: job.state.clone(),
                frame: job.frame.clone(),
            })
            .collect();
        Some(snapshot)
    }

    /// Stop: no further admissions or slices, and every job's event
    /// sender is dropped (a slice in flight keeps its own until it ends).
    pub(crate) fn shutdown(&mut self) {
        self.shutdown = true;
        for job in self.jobs.values_mut() {
            job.events = None;
        }
    }

    /// The `/status` rows, by job id.
    pub(crate) fn rows(&self) -> Vec<JobRow> {
        self.jobs
            .iter()
            .map(|(id, job)| {
                let p = job.progress();
                JobRow {
                    id: id.to_string(),
                    tenant: job.tenant.clone(),
                    status: job.status,
                    epochs_completed: p.epochs_completed,
                    base_score: p.base_score,
                    best_score: p.best_score,
                    downstream_evals: p.downstream_evals,
                    elapsed_secs: p.elapsed_secs,
                    budget_remaining: p.budget_remaining(&job.budget),
                }
            })
            .collect()
    }

    /// The `/status` series, sorted by name: for each job, one point per
    /// slice on record under `job-N.{epoch_us, best_score, evals_per_sec,
    /// budget_remaining, cache_hit_rate}`. A job with no slice on record
    /// has none.
    pub(crate) fn series(&self) -> Vec<(String, Vec<Point>)> {
        let mut out = Vec::new();
        for (id, job) in self.jobs.iter().filter(|(_, job)| !job.slices.is_empty()) {
            let mut series: [Vec<Point>; 5] = Default::default();
            for s in &job.slices {
                let tick = s.progress.epochs_completed as u64;
                for (points, value) in series.iter_mut().zip(s.signals(&job.budget)) {
                    points.push(Point { tick, value });
                }
            }
            let names = SIGNALS.iter().map(|signal| format!("{id}.{signal}"));
            out.extend(names.zip(series));
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Jobs waiting for a slot, and jobs in the rotation.
    pub(crate) fn depth(&self) -> (usize, usize) {
        (self.queued.len(), self.rotation.len())
    }
}

#[cfg(test)]
mod tests;
