//! The multi-tenant job server: admission, fair scheduling, cooperative
//! cancellation, and checkpoint/resume.
//!
//! One [`JobServer`] owns the shared compute substrate — the global
//! worker-thread budget, a process-shared content-addressed score cache,
//! and (implicitly) the process-global signature cache — and multiplexes
//! any number of tenant jobs over it. Every scheduling decision is made by
//! one crate-private `Scheduler` value behind a mutex; a single driver
//! thread asks it for the next slice, runs that epoch-granular engine
//! slice *outside* the lock, and commits the result back, so every tenant
//! advances at the same rate regardless of submission order.
//!
//! ## Lifecycle
//!
//! `submit` → bounded queue (admission control) → promoted into the
//! rotation when an active slot frees up → sliced until the engine
//! finishes, the budget runs out, or the tenant cancels → terminal
//! [`JobOutcome`] delivered on the handle's event stream.
//!
//! ## Checkpoint format
//!
//! One JSON file per non-terminal job, `<dir>/job-<id>.json`, holding a
//! versioned [`Engine`] definition (config + gate; the process-local
//! cache handle is re-attached on resume), the [`Budget`], and either
//! the serialized search state (started jobs) or the submitted frame
//! (jobs that never got a slice). [`JobServer::resume`] re-admits every
//! checkpoint and deletes each file as its job reaches a terminal state.

use crate::budget::Budget;
use crate::error::{Result, ServeError};
use crate::job::{progress_event, JobEvent, JobId, JobOutcome, JobStatus};
use crate::metrics::{prometheus, ServerMetrics};
use crate::scheduler::{Feed, Job, JobCheckpoint, JobRow, Scheduler, Slice, SliceEnd};
use crate::status::{StatusServer, StatusSource};
use eafe::{Engine, EpochReport, SearchState};
use runtime::ScoreCache;
use serde::{Serialize, Value};
use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::sync::mpsc::{self, Receiver};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;
use tabular::DataFrame;
use telemetry::{CountEvent, Event, JsonLinesSink, Sink};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Maximum jobs in the scheduler rotation at once; further
    /// admissions wait in the queue.
    pub max_active: usize,
    /// Bound on the wait queue — submissions beyond it are rejected
    /// with [`ServeError::QueueFull`] (admission control).
    pub max_queued: usize,
    /// Pin the process-global worker-thread budget at startup
    /// (`None` leaves the current setting untouched).
    pub threads: Option<usize>,
    /// Where to write per-job checkpoints (shutdown persists every
    /// non-terminal job here; [`JobServer::resume`] reloads them).
    pub checkpoint_dir: Option<PathBuf>,
    /// Where to write per-job JSON-lines progress feeds
    /// (`<dir>/job-<id>.jsonl`, one telemetry `Event` per epoch,
    /// flushed per line so live tails never stall).
    pub feed_dir: Option<PathBuf>,
    /// Bind address for the HTTP introspection endpoint
    /// (`/metrics` + `/status`), e.g. `"127.0.0.1:0"`. `None` (the
    /// default) starts no listener — introspection is strictly opt-in.
    pub status_addr: Option<String>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_active: 4,
            max_queued: 64,
            threads: None,
            checkpoint_dir: None,
            feed_dir: None,
            status_addr: None,
        }
    }
}

/// The scheduler and the condition its driver thread and checkpoint
/// writers wait on.
struct Shared {
    scheduler: Mutex<Scheduler>,
    work: Condvar,
}

impl Shared {
    /// The scheduler, also after a panic while it was held: its methods
    /// do not panic and every other holder only reads the table, so a
    /// poisoned lock still guards a whole table.
    fn lock(&self) -> MutexGuard<'_, Scheduler> {
        self.scheduler
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    fn wait<'a>(&self, guard: MutexGuard<'a, Scheduler>) -> MutexGuard<'a, Scheduler> {
        self.work
            .wait(guard)
            .unwrap_or_else(PoisonError::into_inner)
    }
}

/// A long-lived, multi-tenant feature-engineering service over the
/// E-AFE engine. See the [crate docs](crate) for the architecture.
pub struct JobServer {
    shared: Arc<Shared>,
    cache: Arc<ScoreCache<f64>>,
    config: ServerConfig,
    metrics: Arc<ServerMetrics>,
    driver: Option<std::thread::JoinHandle<()>>,
    status: Option<StatusServer>,
}

/// A tenant's handle to one submitted job: live progress stream,
/// status queries, cooperative cancellation, and blocking wait.
///
/// Dropping the handle does not affect the job.
pub struct JobHandle {
    id: JobId,
    tenant: String,
    shared: Arc<Shared>,
    events: Receiver<JobEvent>,
    done: RefCell<Option<Box<JobOutcome>>>,
}

impl JobServer {
    /// Start a server (spawns the scheduler thread). If
    /// `config.threads` is set, the process-global worker-thread budget
    /// is pinned first so every job sees the same parallelism.
    pub fn new(config: ServerConfig) -> Result<JobServer> {
        if let Some(n) = config.threads {
            runtime::set_global_threads(n);
        }
        let shared = Arc::new(Shared {
            scheduler: Mutex::new(Scheduler::new(config.max_active, config.max_queued)),
            work: Condvar::new(),
        });
        let cache = Arc::new(ScoreCache::new(runtime::DEFAULT_CACHE_CAPACITY));
        let metrics = Arc::new(ServerMetrics::default());
        let driver = {
            let shared = Arc::clone(&shared);
            let checkpoint_dir = config.checkpoint_dir.clone();
            let metrics = Arc::clone(&metrics);
            let cache = Arc::clone(&cache);
            std::thread::Builder::new()
                .name("serve-scheduler".to_string())
                .spawn(move || scheduler_loop(&shared, checkpoint_dir, &metrics, &cache))?
        };
        let status = match &config.status_addr {
            Some(addr) => Some(StatusServer::start(
                addr,
                Arc::new(Introspection {
                    shared: Arc::clone(&shared),
                    metrics: Arc::clone(&metrics),
                    cache: Arc::clone(&cache),
                }),
            )?),
            None => None,
        };
        Ok(JobServer {
            shared,
            cache,
            config,
            metrics,
            driver: Some(driver),
            status,
        })
    }

    /// Start a server and re-admit every job checkpointed in
    /// `config.checkpoint_dir` (required), re-attaching the new server's
    /// shared score cache. Returns fresh handles, ordered by job id; job
    /// ids are preserved across the restart.
    pub fn resume(config: ServerConfig) -> Result<(JobServer, Vec<JobHandle>)> {
        let dir = config
            .checkpoint_dir
            .clone()
            .ok_or(ServeError::NoCheckpointDir)?;
        let server = JobServer::new(config)?;
        let mut checkpoints: Vec<JobCheckpoint> = Vec::new();
        if dir.is_dir() {
            for entry in std::fs::read_dir(&dir)? {
                let path = entry?.path();
                if path.extension().and_then(|e| e.to_str()) != Some("json") {
                    continue;
                }
                let cp = JobCheckpoint::parse(&std::fs::read(&path)?)
                    .map_err(|e| ServeError::Corrupt(format!("{}: {e}", path.display())))?;
                checkpoints.push(cp);
            }
        }
        // Deterministic re-admission order regardless of directory order.
        checkpoints.sort_by_key(|cp| cp.id);
        let handles = checkpoints
            .into_iter()
            .map(|cp| {
                let id = Some(JobId(cp.id));
                server.admit(id, cp.tenant, cp.engine, cp.budget, cp.frame, cp.state)
            })
            .collect::<Result<Vec<_>>>()?;
        server.shared.work.notify_all();
        Ok((server, handles))
    }

    /// Build a job on the server's shared cache and admit it — a new
    /// submission when `id` is `None`, else a restored one.
    fn admit(
        &self,
        id: Option<JobId>,
        tenant: String,
        engine: Engine,
        budget: Budget,
        frame: Option<DataFrame>,
        state: Option<SearchState>,
    ) -> Result<JobHandle> {
        let engine = Arc::new(engine.with_cache(Arc::clone(&self.cache)));
        let (tx, events) = mpsc::channel();
        let job = Job::new(tenant.clone(), engine, budget, frame, state, tx);
        let id = self
            .shared
            .lock()
            .admit(id, job, Instant::now(), |id| self.open_feed(id))?;
        Ok(JobHandle {
            id,
            tenant,
            shared: Arc::clone(&self.shared),
            events,
            done: RefCell::new(None),
        })
    }

    fn open_feed(&self, id: JobId) -> Result<Feed> {
        match &self.config.feed_dir {
            Some(dir) => {
                std::fs::create_dir_all(dir)?;
                let sink = JsonLinesSink::create(&dir.join(format!("{id}.jsonl")))?;
                Ok(Some(Arc::new(sink)))
            }
            None => Ok(None),
        }
    }

    /// Submit a job: run `engine` on `frame` under `budget` for
    /// `tenant`. The engine is attached to the server's shared score
    /// cache (identical evaluations across tenants are computed once —
    /// scores are content-addressed, so sharing never changes results).
    ///
    /// Admission control: the wait queue is bounded by
    /// [`ServerConfig::max_queued`]; a full queue rejects the submission
    /// immediately rather than blocking the caller.
    pub fn submit(
        &self,
        tenant: &str,
        frame: &DataFrame,
        engine: Engine,
        budget: Budget,
    ) -> Result<JobHandle> {
        let frame = Some(frame.clone());
        let handle = self.admit(None, tenant.to_string(), engine, budget, frame, None)?;
        self.shared.work.notify_all();
        telemetry::count("serve.submitted", 1);
        Ok(handle)
    }

    /// Current status of a job.
    pub fn status(&self, id: JobId) -> Result<JobStatus> {
        self.shared.lock().status(id)
    }

    /// Request cooperative cancellation of a job. The job stops at the
    /// next epoch boundary: at most the slice already in flight
    /// completes, and its best-so-far result is preserved in the
    /// terminal [`JobOutcome`].
    pub fn cancel(&self, id: JobId) -> Result<()> {
        self.shared.lock().cancel(id)
    }

    /// Checkpoint every non-terminal job to the configured checkpoint
    /// directory and return how many were written. The snapshot is taken
    /// at the next epoch boundary, which a busy rotation cannot starve:
    /// no slice starts between the boundary and the last file written.
    pub fn checkpoint_all(&self) -> Result<usize> {
        let dir = self
            .config
            .checkpoint_dir
            .as_deref()
            .ok_or(ServeError::NoCheckpointDir)?;
        self.write_checkpoints(dir)
    }

    fn write_checkpoints(&self, dir: &Path) -> Result<usize> {
        std::fs::create_dir_all(dir)?;
        let mut scheduler = self.shared.lock();
        let checkpoints = loop {
            match scheduler.checkpoints() {
                Some(checkpoints) => break checkpoints,
                None => scheduler = self.shared.wait(scheduler),
            }
        };
        // Written under the lock, so no job can finish (and delete its
        // file) between the snapshot and its write.
        let written = checkpoints.iter().try_for_each(|cp| {
            let id = JobId(cp.id);
            let text = serde_json::to_string(cp)
                .map_err(|e| ServeError::Corrupt(format!("serialize {id}: {e}")))?;
            std::fs::write(dir.join(format!("{id}.json")), text)?;
            Ok(())
        });
        drop(scheduler);
        self.shared.work.notify_all();
        written.map(|()| checkpoints.len())
    }

    /// Stop the scheduler (the in-flight slice, if any, completes) and
    /// persist every non-terminal job to the checkpoint directory when
    /// one is configured. Returns how many jobs were checkpointed.
    /// After shutdown the server accepts no new submissions, and a
    /// handle still waiting on an unfinished job wakes with
    /// [`ServeError::ServerStopped`].
    pub fn shutdown(&mut self) -> Result<usize> {
        if let Some(mut status) = self.status.take() {
            status.stop();
        }
        self.shared.lock().shutdown();
        self.shared.work.notify_all();
        if let Some(handle) = self.driver.take() {
            let _ = handle.join();
        }
        match &self.config.checkpoint_dir {
            Some(dir) => self.write_checkpoints(dir),
            None => Ok(0),
        }
    }

    /// The server-wide shared score cache (content-addressed; handed to
    /// every submitted engine).
    pub fn score_cache(&self) -> &Arc<ScoreCache<f64>> {
        &self.cache
    }

    /// The server's per-tenant metrics.
    pub fn metrics(&self) -> &Arc<ServerMetrics> {
        &self.metrics
    }

    /// The bound address of the HTTP introspection endpoint, when
    /// [`ServerConfig::status_addr`] was set (resolves port 0).
    pub fn status_addr(&self) -> Option<std::net::SocketAddr> {
        self.status.as_ref().map(|s| s.addr())
    }
}

/// The [`StatusSource`] behind the server's introspection endpoint:
/// snapshots the job table, tenant metrics, pool budget, and score cache.
struct Introspection {
    shared: Arc<Shared>,
    metrics: Arc<ServerMetrics>,
    cache: Arc<ScoreCache<f64>>,
}

/// The `/status` document.
#[derive(Serialize)]
struct StatusPage {
    jobs: Vec<JobRow>,
    queue_depth: usize,
    active: usize,
    pool: runtime::PoolStats,
    cache: Value,
    /// Process-wide chunked-frame residency and spill traffic (the
    /// out-of-core data layer's working-set gauges).
    frame: tabular::FrameStats,
    /// Process-wide distributed-search activity (all zero unless a
    /// `dist` coordinator runs in this process).
    dist: runtime::DistStats,
    /// Every job's series over its kept slices, by name.
    series: Value,
}

impl StatusSource for Introspection {
    fn status_json(&self) -> String {
        let (jobs, series, (queue_depth, active)) = {
            let scheduler = self.shared.lock();
            (scheduler.rows(), scheduler.series(), scheduler.depth())
        };
        let stats = self.cache.stats();
        let mut cache = stats.to_value();
        if let Value::Map(entries) = &mut cache {
            entries.push(("hit_rate".to_string(), stats.hit_rate().to_value()));
        }
        let page = StatusPage {
            jobs,
            queue_depth,
            active,
            pool: runtime::pool_stats(),
            cache,
            frame: tabular::global_frame_stats(),
            dist: runtime::global_dist_stats(),
            series: Value::Map(
                series
                    .into_iter()
                    .map(|(name, points)| (name, points.to_value()))
                    .collect(),
            ),
        };
        serde_json::to_string(&page).unwrap_or_else(|_| "{}".to_string())
    }

    fn metrics_text(&self) -> String {
        prometheus(self.metrics.scoped())
    }
}

impl Drop for JobServer {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

impl std::fmt::Debug for JobHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobHandle")
            .field("id", &self.id)
            .field("tenant", &self.tenant)
            .finish_non_exhaustive()
    }
}

impl JobHandle {
    /// The server-assigned job id.
    pub fn id(&self) -> JobId {
        self.id
    }

    /// The tenant this job was submitted for.
    pub fn tenant(&self) -> &str {
        &self.tenant
    }

    /// Current job status.
    pub fn status(&self) -> Result<JobStatus> {
        self.shared.lock().status(self.id)
    }

    /// Request cooperative cancellation (see [`JobServer::cancel`]).
    pub fn cancel(&self) -> Result<()> {
        self.shared.lock().cancel(self.id)
    }

    /// Drain every progress report currently pending on the stream
    /// (non-blocking). A terminal event encountered while draining is
    /// retained for [`JobHandle::wait`].
    pub fn progress(&self) -> Vec<EpochReport> {
        let mut out = Vec::new();
        while let Ok(ev) = self.events.try_recv() {
            match ev {
                JobEvent::Epoch(r) => out.push(r),
                JobEvent::Done(o) => {
                    *self.done.borrow_mut() = Some(o);
                }
            }
        }
        out
    }

    /// Block for the next event on the stream; `None` once the stream is
    /// finished (terminal event already delivered, or the server went
    /// away).
    pub fn next_event(&self) -> Option<JobEvent> {
        if self.done.borrow().is_some() {
            return None;
        }
        match self.events.recv() {
            Ok(JobEvent::Done(o)) => {
                *self.done.borrow_mut() = Some(o.clone());
                Some(JobEvent::Done(o))
            }
            Ok(ev) => Some(ev),
            Err(_) => None,
        }
    }

    /// Block until the job reaches a terminal state and return its
    /// outcome (pending progress events are drained and discarded; use
    /// [`JobHandle::next_event`] to observe them).
    pub fn wait(&self) -> Result<JobOutcome> {
        if let Some(done) = self.done.borrow().as_deref() {
            return Ok(done.clone());
        }
        loop {
            match self.events.recv() {
                Ok(JobEvent::Epoch(_)) => continue,
                Ok(JobEvent::Done(o)) => {
                    let out = (*o).clone();
                    *self.done.borrow_mut() = Some(o);
                    return Ok(out);
                }
                // The stream closed without a terminal event: the server
                // stopped first. (A job that finishes always sends its
                // outcome before its last sender goes.)
                Err(_) => return Err(ServeError::ServerStopped),
            }
        }
    }
}

/// The driver: ask the scheduler for a slice (or wait for one), run it
/// outside the lock, commit it (the job's record is written under the
/// lock), then record tenant metrics and deliver the terminal event
/// outside the lock again. Epoch events go out from inside the slice,
/// before the commit; `Done` only after it, so a waiter never sees a
/// terminal event before the job table does.
fn scheduler_loop(
    shared: &Shared,
    checkpoint_dir: Option<PathBuf>,
    metrics: &ServerMetrics,
    cache: &ScoreCache<f64>,
) {
    loop {
        let (slice, admission_waits) = {
            let mut scheduler = shared.lock();
            loop {
                match scheduler.next_slice(Instant::now()) {
                    Ok(Some(next)) => break next,
                    Ok(None) => scheduler = shared.wait(scheduler),
                    Err(_) => return,
                }
            }
        };
        for (tenant, wait_us) in admission_waits {
            metrics.record_admission_wait(&tenant, wait_us);
        }

        let id = slice.id;
        let tenant = slice.tenant.clone();
        let events = slice.events.clone();
        let feed = slice.feed.clone();
        let slice_start = Instant::now();
        let (end, report) = run_slice(slice);
        let epoch_us = slice_start.elapsed().as_micros() as u64;
        let hit_rate = cache.stats().hit_rate();

        let (outcome, evals_delta) =
            shared
                .lock()
                .commit(id, end, report.as_deref(), epoch_us, hit_rate);
        shared.work.notify_all();

        if report.is_some() {
            metrics.record_slice(&tenant, epoch_us, evals_delta);
        }

        if let Some(outcome) = outcome {
            if let Some(dir) = &checkpoint_dir {
                let _ = std::fs::remove_file(dir.join(format!("{id}.json")));
            }
            if let Some(feed) = &feed {
                feed.record(&Event::Count(CountEvent {
                    name: format!("serve.done.{:?}", outcome.status),
                    value: outcome.epochs as u64,
                }));
                feed.flush();
            }
            telemetry::count("serve.finished", 1);
            if let Some(events) = &events {
                let _ = events.send(JobEvent::Done(outcome));
            }
        }
    }
}

/// Run one slice for a job, outside the server lock. Sends the epoch
/// report on the job's stream and feed; terminal outcomes are returned
/// for the scheduler to commit (the Done event is sent after commit, so
/// a waiter never observes a terminal event before the server map does).
/// The report the slice produced (if the engine stepped at all) rides
/// along for the job's record.
pub(crate) fn run_slice(slice: Slice) -> (SliceEnd, Option<Box<EpochReport>>) {
    let Slice {
        id,
        tenant,
        engine,
        state,
        frame,
        budget,
        cancelled,
        events,
        feed,
    } = slice;
    let finalize = |status: JobStatus, state: Option<SearchState>, error: Option<String>| {
        let (result, engineered) = match &state {
            Some(s) => match engine.finish(s) {
                Ok((r, f)) => (Some(r), Some(f)),
                Err(_) => (None, None),
            },
            None => (None, None),
        };
        SliceEnd::Terminal(Box::new(JobOutcome {
            id,
            tenant: tenant.clone(),
            status,
            epochs: state.as_ref().map_or(0, |s| s.epochs_completed()),
            result,
            engineered,
            error,
        }))
    };

    if cancelled {
        return (finalize(JobStatus::Cancelled, state, None), None);
    }

    let mut state = match state {
        Some(s) => s,
        None => {
            let frame = match frame {
                Some(f) => f,
                None => {
                    return (
                        finalize(
                            JobStatus::Failed,
                            None,
                            Some("job has neither state nor frame".to_string()),
                        ),
                        None,
                    )
                }
            };
            match engine.start(&frame) {
                Ok(s) => s,
                Err(e) => return (finalize(JobStatus::Failed, None, Some(e.to_string())), None),
            }
        }
    };

    // A restored (or freshly started) job may already be over budget —
    // never run a slice the budget doesn't cover.
    if budget.exhausted(
        state.epochs_completed(),
        state.downstream_evals(),
        state.elapsed_secs(),
    ) {
        return (
            finalize(JobStatus::BudgetExhausted, Some(state), None),
            None,
        );
    }

    let report = {
        let mut span = telemetry::span("serve.slice");
        span.field("job", id.0 as f64);
        match engine.step(&mut state) {
            Ok(r) => r,
            Err(e) => {
                return (
                    finalize(JobStatus::Failed, Some(state), Some(e.to_string())),
                    None,
                )
            }
        }
    };
    if let Some(feed) = &feed {
        feed.record(&progress_event(id, &report));
    }
    if let Some(events) = &events {
        let _ = events.send(JobEvent::Epoch(report.clone()));
    }

    let end = if report.done {
        finalize(JobStatus::Completed, Some(state), None)
    } else if budget.exhausted(
        report.epochs_completed,
        report.downstream_evals,
        report.elapsed_secs,
    ) {
        finalize(JobStatus::BudgetExhausted, Some(state), None)
    } else {
        SliceEnd::Continue(Box::new(state))
    };
    (end, Some(Box::new(report)))
}
