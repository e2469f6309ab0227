//! The multi-tenant job server: admission, fair scheduling, cooperative
//! cancellation, and checkpoint/resume.
//!
//! One [`JobServer`] owns the shared compute substrate — the global
//! worker-thread budget, a process-shared content-addressed score cache,
//! and (implicitly) the process-global signature cache — and multiplexes
//! any number of tenant jobs over it. A single scheduler thread drains a
//! [`runtime::RoundRobin`] rotation of active jobs, running exactly one
//! epoch-granular engine slice per turn, so every tenant advances at the
//! same rate regardless of submission order. All blocking work happens
//! *outside* the server lock; the lock only guards job bookkeeping.
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
use crate::metrics::{ServerMetrics, SliceSample, SloConfig};
use crate::status::{StatusServer, StatusSource};
use eafe::{Engine, EpochReport, SearchState};
use runtime::{CancelToken, RoundRobin, ScoreCache};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc, Condvar, Mutex};
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
    /// Per-tenant latency objectives; breaches are counted in the
    /// tenant's metric scope and emitted as telemetry events.
    pub slo: SloConfig,
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
            slo: SloConfig::default(),
        }
    }
}

/// Versioned on-disk form of one job.
#[derive(Serialize, Deserialize)]
struct JobCheckpoint {
    version: u32,
    id: u64,
    tenant: String,
    engine: Engine,
    budget: Budget,
    /// Search state for started jobs (owns its sanitized frame).
    state: Option<SearchState>,
    /// Submitted frame for jobs that never received a slice.
    frame: Option<DataFrame>,
}

/// 2: `eafe::SearchState` keeps the column store and the scores under
/// `state`.
const CHECKPOINT_VERSION: u32 = 2;

/// Cumulative figures from a job's most recent slice, kept for the
/// `/status` page and for per-slice counter deltas.
#[derive(Debug, Clone, Copy, Default)]
struct JobLast {
    epochs_completed: usize,
    base_score: f64,
    best_score: f64,
    downstream_evals: usize,
    elapsed_secs: f64,
}

struct Job {
    tenant: String,
    engine: Arc<Engine>,
    /// Submitted frame; taken by the first slice (the search state owns
    /// its own sanitized copy from then on).
    frame: Option<DataFrame>,
    budget: Budget,
    status: JobStatus,
    /// Present between slices once started; taken while a slice runs.
    state: Option<SearchState>,
    cancel: CancelToken,
    /// Dropped (set to `None`) at shutdown so blocked [`JobHandle::wait`]
    /// callers observe the disconnect instead of hanging forever.
    events: Option<Sender<JobEvent>>,
    feed: Option<Arc<JsonLinesSink>>,
    outcome: Option<Box<JobOutcome>>,
    /// When the job entered the queue (admission-wait accounting).
    submitted: Instant,
    /// Most recent slice report, for `/status` and counter deltas.
    last: Option<JobLast>,
}

struct Inner {
    jobs: HashMap<JobId, Job>,
    /// Active jobs, in fair rotation.
    rr: RoundRobin<JobId>,
    /// Admitted jobs waiting for an active slot.
    queued: VecDeque<JobId>,
    next_id: u64,
    /// Job currently being sliced (its `state` is taken).
    in_flight: Option<JobId>,
    /// Scheduler parked by `pause` (checkpointing needs a quiesced map).
    paused: bool,
    shutdown: bool,
}

struct Shared {
    inner: Mutex<Inner>,
    work: Condvar,
}

/// A long-lived, multi-tenant feature-engineering service over the
/// E-AFE engine. See the [module docs](self) for the architecture.
pub struct JobServer {
    shared: Arc<Shared>,
    cache: Arc<ScoreCache<f64>>,
    config: ServerConfig,
    metrics: Arc<ServerMetrics>,
    scheduler: Option<std::thread::JoinHandle<()>>,
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
            inner: Mutex::new(Inner {
                jobs: HashMap::new(),
                rr: RoundRobin::new(),
                queued: VecDeque::new(),
                next_id: 1,
                in_flight: None,
                paused: false,
                shutdown: false,
            }),
            work: Condvar::new(),
        });
        let cache = Arc::new(ScoreCache::new(runtime::evaluator::DEFAULT_CACHE_CAPACITY));
        let metrics = Arc::new(ServerMetrics::new(config.slo));
        let scheduler = {
            let shared = Arc::clone(&shared);
            let max_active = config.max_active.max(1);
            let checkpoint_dir = config.checkpoint_dir.clone();
            let metrics = Arc::clone(&metrics);
            let cache = Arc::clone(&cache);
            std::thread::Builder::new()
                .name("serve-scheduler".to_string())
                .spawn(move || scheduler_loop(shared, max_active, checkpoint_dir, metrics, cache))?
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
            scheduler: Some(scheduler),
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
                let text = std::fs::read_to_string(&path)?;
                let cp: JobCheckpoint = serde_json::from_str(&text)
                    .map_err(|e| ServeError::Corrupt(format!("{}: {e}", path.display())))?;
                if cp.version != CHECKPOINT_VERSION {
                    return Err(ServeError::Corrupt(format!(
                        "{}: unsupported checkpoint version {}",
                        path.display(),
                        cp.version
                    )));
                }
                checkpoints.push(cp);
            }
        }
        // Deterministic re-admission order regardless of directory order.
        checkpoints.sort_by_key(|cp| cp.id);
        let mut handles = Vec::with_capacity(checkpoints.len());
        for cp in checkpoints {
            let id = JobId(cp.id);
            let engine = Arc::new(cp.engine.with_cache(Arc::clone(&server.cache)));
            let feed = server.make_feed(id)?;
            let (tx, rx) = mpsc::channel();
            let mut inner = server.shared.inner.lock().unwrap();
            inner.next_id = inner.next_id.max(cp.id + 1);
            inner.jobs.insert(
                id,
                Job {
                    tenant: cp.tenant.clone(),
                    engine,
                    frame: cp.frame,
                    budget: cp.budget,
                    status: JobStatus::Queued,
                    state: cp.state,
                    cancel: CancelToken::new(),
                    events: Some(tx),
                    feed,
                    outcome: None,
                    submitted: Instant::now(),
                    last: None,
                },
            );
            inner.queued.push_back(id);
            drop(inner);
            handles.push(JobHandle {
                id,
                tenant: cp.tenant,
                shared: Arc::clone(&server.shared),
                events: rx,
                done: RefCell::new(None),
            });
        }
        server.shared.work.notify_all();
        Ok((server, handles))
    }

    fn make_feed(&self, id: JobId) -> Result<Option<Arc<JsonLinesSink>>> {
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
        let engine = Arc::new(engine.with_cache(Arc::clone(&self.cache)));
        let (tx, rx) = mpsc::channel();
        let id = {
            let mut inner = self.shared.inner.lock().unwrap();
            if inner.shutdown {
                return Err(ServeError::ServerStopped);
            }
            if inner.queued.len() >= self.config.max_queued {
                return Err(ServeError::QueueFull {
                    capacity: self.config.max_queued,
                });
            }
            let id = JobId(inner.next_id);
            inner.next_id += 1;
            id
        };
        let feed = self.make_feed(id)?;
        {
            let mut inner = self.shared.inner.lock().unwrap();
            inner.jobs.insert(
                id,
                Job {
                    tenant: tenant.to_string(),
                    engine,
                    frame: Some(frame.clone()),
                    budget,
                    status: JobStatus::Queued,
                    state: None,
                    cancel: CancelToken::new(),
                    events: Some(tx),
                    feed,
                    outcome: None,
                    submitted: Instant::now(),
                    last: None,
                },
            );
            inner.queued.push_back(id);
        }
        self.shared.work.notify_all();
        telemetry::count("serve.submitted", 1);
        Ok(JobHandle {
            id,
            tenant: tenant.to_string(),
            shared: Arc::clone(&self.shared),
            events: rx,
            done: RefCell::new(None),
        })
    }

    /// Current status of a job.
    pub fn status(&self, id: JobId) -> Result<JobStatus> {
        let inner = self.shared.inner.lock().unwrap();
        inner
            .jobs
            .get(&id)
            .map(|j| j.status)
            .ok_or(ServeError::UnknownJob(id))
    }

    /// Request cooperative cancellation of a job. The job stops at the
    /// next epoch boundary: at most the slice already in flight
    /// completes, and its best-so-far result is preserved in the
    /// terminal [`JobOutcome`].
    pub fn cancel(&self, id: JobId) -> Result<()> {
        let inner = self.shared.inner.lock().unwrap();
        let job = inner.jobs.get(&id).ok_or(ServeError::UnknownJob(id))?;
        job.cancel.cancel();
        drop(inner);
        self.shared.work.notify_all();
        Ok(())
    }

    /// Park the scheduler at the next epoch boundary and return once no
    /// slice is in flight. While paused, job state is fully materialized
    /// in the server (nothing is mid-step), so progress streams are
    /// complete and checkpoints are consistent.
    pub fn pause(&self) {
        let mut inner = self.shared.inner.lock().unwrap();
        inner.paused = true;
        self.shared.work.notify_all();
        while inner.in_flight.is_some() {
            inner = self.shared.work.wait(inner).unwrap();
        }
    }

    /// Resume scheduling after [`JobServer::pause`].
    pub fn unpause(&self) {
        let mut inner = self.shared.inner.lock().unwrap();
        inner.paused = false;
        drop(inner);
        self.shared.work.notify_all();
    }

    /// Checkpoint every non-terminal job to the configured checkpoint
    /// directory (pausing the scheduler for a consistent snapshot) and
    /// return how many were written.
    pub fn checkpoint_all(&self) -> Result<usize> {
        let dir = self
            .config
            .checkpoint_dir
            .clone()
            .ok_or(ServeError::NoCheckpointDir)?;
        std::fs::create_dir_all(&dir)?;
        // Only a pause taken here is undone: a scheduler the caller parked
        // stays parked (unparking it lets a fast job finish, and delete its
        // checkpoint, before the caller's next call).
        let pause_here = {
            let inner = self.shared.inner.lock().unwrap();
            !inner.shutdown && !inner.paused
        };
        if pause_here {
            self.pause();
        }
        let result = self.write_checkpoints(&dir);
        if pause_here {
            self.unpause();
        }
        result
    }

    fn write_checkpoints(&self, dir: &std::path::Path) -> Result<usize> {
        let inner = self.shared.inner.lock().unwrap();
        let mut written = 0;
        for (id, job) in &inner.jobs {
            if job.status.is_terminal() {
                continue;
            }
            let cp = JobCheckpoint {
                version: CHECKPOINT_VERSION,
                id: id.0,
                tenant: job.tenant.clone(),
                engine: (*job.engine).clone(),
                budget: job.budget,
                state: job.state.clone(),
                frame: job.frame.clone(),
            };
            let text = serde_json::to_string(&cp)
                .map_err(|e| ServeError::Corrupt(format!("serialize {id}: {e}")))?;
            std::fs::write(dir.join(format!("{id}.json")), text)?;
            written += 1;
        }
        Ok(written)
    }

    /// Stop the scheduler (the in-flight slice, if any, completes) and
    /// persist every non-terminal job to the checkpoint directory when
    /// one is configured. Returns how many jobs were checkpointed.
    /// After shutdown the server accepts no new submissions.
    pub fn shutdown(&mut self) -> Result<usize> {
        if let Some(mut status) = self.status.take() {
            status.stop();
        }
        {
            let mut inner = self.shared.inner.lock().unwrap();
            inner.shutdown = true;
        }
        self.shared.work.notify_all();
        if let Some(handle) = self.scheduler.take() {
            let _ = handle.join();
        }
        let written = match &self.config.checkpoint_dir {
            Some(dir) => {
                let dir = dir.clone();
                std::fs::create_dir_all(&dir)?;
                self.write_checkpoints(&dir)
            }
            None => Ok(0),
        };
        // Disconnect every event stream so handles blocked in `wait` or
        // `next_event` wake up instead of hanging on a dead server
        // (terminal outcomes already committed to the map stay readable).
        let mut inner = self.shared.inner.lock().unwrap();
        for job in inner.jobs.values_mut() {
            job.events = None;
        }
        written
    }

    /// The server-wide shared score cache (content-addressed; handed to
    /// every submitted engine).
    pub fn score_cache(&self) -> &Arc<ScoreCache<f64>> {
        &self.cache
    }

    /// The server's per-tenant scoped metrics and time series.
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
/// snapshots the job map, scoped metrics, pool budget, and score cache
/// under short-lived locks.
struct Introspection {
    shared: Arc<Shared>,
    metrics: Arc<ServerMetrics>,
    cache: Arc<ScoreCache<f64>>,
}

impl Introspection {
    fn jobs_value(&self) -> serde::Value {
        let inner = self.shared.inner.lock().unwrap();
        let mut ids: Vec<JobId> = inner.jobs.keys().copied().collect();
        ids.sort();
        let jobs = ids
            .iter()
            .map(|id| {
                let job = &inner.jobs[id];
                let last = job.last.unwrap_or_default();
                serde::Value::Map(vec![
                    ("id".to_string(), serde::Value::Str(id.to_string())),
                    ("tenant".to_string(), serde::Value::Str(job.tenant.clone())),
                    (
                        "status".to_string(),
                        serde::Value::Str(format!("{:?}", job.status)),
                    ),
                    (
                        "epochs_completed".to_string(),
                        serde::Value::U64(last.epochs_completed as u64),
                    ),
                    ("base_score".to_string(), serde::Value::F64(last.base_score)),
                    ("best_score".to_string(), serde::Value::F64(last.best_score)),
                    (
                        "downstream_evals".to_string(),
                        serde::Value::U64(last.downstream_evals as u64),
                    ),
                    (
                        "elapsed_secs".to_string(),
                        serde::Value::F64(last.elapsed_secs),
                    ),
                    (
                        "budget_remaining".to_string(),
                        serde::Value::F64(job.budget.remaining_fraction(
                            last.epochs_completed,
                            last.downstream_evals,
                            last.elapsed_secs,
                        )),
                    ),
                ])
            })
            .collect();
        serde::Value::Array(jobs)
    }

    fn queue_value(&self) -> (u64, u64) {
        let inner = self.shared.inner.lock().unwrap();
        (inner.queued.len() as u64, inner.rr.len() as u64)
    }

    fn cache_value(&self) -> serde::Value {
        let agg = self.cache.stats();
        let shards = self
            .cache
            .shard_stats()
            .into_iter()
            .map(|s| {
                serde::Value::Map(vec![
                    ("hits".to_string(), serde::Value::U64(s.hits)),
                    ("misses".to_string(), serde::Value::U64(s.misses)),
                    ("inserts".to_string(), serde::Value::U64(s.inserts)),
                    ("evictions".to_string(), serde::Value::U64(s.evictions)),
                    ("len".to_string(), serde::Value::U64(s.len as u64)),
                ])
            })
            .collect();
        serde::Value::Map(vec![
            ("hits".to_string(), serde::Value::U64(agg.hits)),
            ("misses".to_string(), serde::Value::U64(agg.misses)),
            ("hit_rate".to_string(), serde::Value::F64(agg.hit_rate())),
            ("len".to_string(), serde::Value::U64(agg.len as u64)),
            (
                "capacity".to_string(),
                serde::Value::U64(agg.capacity as u64),
            ),
            ("shards".to_string(), serde::Value::Array(shards)),
        ])
    }

    /// Process-wide chunked-frame residency and spill traffic (the
    /// out-of-core data layer's working-set gauges), so an operator can
    /// see budget pressure per scrape without attaching to any job.
    fn frame_value(&self) -> serde::Value {
        let f = tabular::global_frame_stats();
        serde::Value::Map(vec![
            (
                "chunks_resident".to_string(),
                serde::Value::U64(f.chunks_resident),
            ),
            (
                "resident_bytes".to_string(),
                serde::Value::U64(f.resident_bytes),
            ),
            (
                "chunks_spilled".to_string(),
                serde::Value::U64(f.chunks_spilled),
            ),
            (
                "chunks_evicted".to_string(),
                serde::Value::U64(f.chunks_evicted),
            ),
            (
                "chunks_loaded".to_string(),
                serde::Value::U64(f.chunks_loaded),
            ),
            (
                "chunks_decoded".to_string(),
                serde::Value::U64(f.chunks_decoded),
            ),
        ])
    }

    /// Process-wide distributed-search activity (the `dist` crate's
    /// coordinator counters): shard flow, bytes on the wire, merge
    /// traffic, and coordinator-side overhead. All zero unless a
    /// coordinator runs in this process.
    fn dist_value(&self) -> serde::Value {
        let d = runtime::global_dist_stats();
        serde::Value::Map(vec![
            (
                "workers_live".to_string(),
                serde::Value::U64(d.workers_live),
            ),
            (
                "shards_dispatched".to_string(),
                serde::Value::U64(d.shards_dispatched),
            ),
            (
                "shards_completed".to_string(),
                serde::Value::U64(d.shards_completed),
            ),
            (
                "shards_retried".to_string(),
                serde::Value::U64(d.shards_retried),
            ),
            ("bytes_sent".to_string(), serde::Value::U64(d.bytes_sent)),
            (
                "bytes_received".to_string(),
                serde::Value::U64(d.bytes_received),
            ),
            (
                "entries_merged".to_string(),
                serde::Value::U64(d.entries_merged),
            ),
            (
                "entries_fresh".to_string(),
                serde::Value::U64(d.entries_fresh),
            ),
            ("wire_us".to_string(), serde::Value::U64(d.wire_us)),
        ])
    }

    fn series_value(&self) -> serde::Value {
        let series = self
            .metrics
            .series()
            .snapshot()
            .into_iter()
            .map(|(name, points)| {
                let points = points
                    .into_iter()
                    .map(|p| {
                        serde::Value::Map(vec![
                            ("tick".to_string(), serde::Value::U64(p.tick)),
                            ("value".to_string(), serde::Value::F64(p.value)),
                        ])
                    })
                    .collect();
                (name, serde::Value::Array(points))
            })
            .collect();
        serde::Value::Map(series)
    }
}

impl StatusSource for Introspection {
    fn status_json(&self) -> String {
        let (queue_depth, active) = self.queue_value();
        let pool = runtime::pool_stats();
        let doc = serde::Value::Map(vec![
            ("jobs".to_string(), self.jobs_value()),
            ("queue_depth".to_string(), serde::Value::U64(queue_depth)),
            ("active".to_string(), serde::Value::U64(active)),
            (
                "pool".to_string(),
                serde::Value::Map(vec![
                    (
                        "threads".to_string(),
                        serde::Value::U64(pool.threads as u64),
                    ),
                    (
                        "active_extra".to_string(),
                        serde::Value::U64(pool.active_extra as u64),
                    ),
                ]),
            ),
            ("cache".to_string(), self.cache_value()),
            ("frame".to_string(), self.frame_value()),
            ("dist".to_string(), self.dist_value()),
            ("series".to_string(), self.series_value()),
        ]);
        serde_json::to_string(&doc).unwrap_or_else(|_| "{}".to_string())
    }

    fn metrics_text(&self) -> String {
        let mut out = self.metrics.snapshot().to_prometheus();
        // Chunked-frame gauges are process-global (they aggregate over every
        // live frame, across tenants), so they are appended directly rather
        // than routed through the per-tenant scoped registry.
        let f = tabular::global_frame_stats();
        for (name, kind, value) in [
            ("frame_chunks_resident", "gauge", f.chunks_resident),
            ("frame_resident_bytes", "gauge", f.resident_bytes),
            ("frame_chunks_spilled", "counter", f.chunks_spilled),
            ("frame_chunks_evicted", "counter", f.chunks_evicted),
            ("frame_chunks_loaded", "counter", f.chunks_loaded),
            ("frame_chunks_decoded", "counter", f.chunks_decoded),
        ] {
            out.push_str(&format!("# TYPE {name} {kind}\n{name} {value}\n"));
        }
        // Distributed-search counters are likewise process-global: one
        // coordinator per process, counters shared across its runs.
        let d = runtime::global_dist_stats();
        for (name, kind, value) in [
            ("dist_workers_live", "gauge", d.workers_live),
            ("dist_shards_dispatched", "counter", d.shards_dispatched),
            ("dist_shards_completed", "counter", d.shards_completed),
            ("dist_shards_retried", "counter", d.shards_retried),
            ("dist_bytes_sent", "counter", d.bytes_sent),
            ("dist_bytes_received", "counter", d.bytes_received),
            ("dist_entries_merged", "counter", d.entries_merged),
            ("dist_entries_fresh", "counter", d.entries_fresh),
            ("dist_wire_us", "counter", d.wire_us),
        ] {
            out.push_str(&format!("# TYPE {name} {kind}\n{name} {value}\n"));
        }
        out
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
        let inner = self.shared.inner.lock().unwrap();
        inner
            .jobs
            .get(&self.id)
            .map(|j| j.status)
            .ok_or(ServeError::UnknownJob(self.id))
    }

    /// Request cooperative cancellation (see [`JobServer::cancel`]).
    pub fn cancel(&self) -> Result<()> {
        let inner = self.shared.inner.lock().unwrap();
        let job = inner
            .jobs
            .get(&self.id)
            .ok_or(ServeError::UnknownJob(self.id))?;
        job.cancel.cancel();
        drop(inner);
        self.shared.work.notify_all();
        Ok(())
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
                // Sender gone without a terminal event: the server was
                // dropped mid-run. Surface whatever the map still says.
                Err(_) => {
                    let inner = self.shared.inner.lock().unwrap();
                    return match inner.jobs.get(&self.id).and_then(|j| j.outcome.clone()) {
                        Some(o) => Ok(*o),
                        None => Err(ServeError::ServerStopped),
                    };
                }
            }
        }
    }
}

/// Everything a slice needs, moved out of the lock.
struct Slice {
    id: JobId,
    tenant: String,
    engine: Arc<Engine>,
    state: Option<SearchState>,
    frame: Option<DataFrame>,
    budget: Budget,
    cancel: CancelToken,
    events: Sender<JobEvent>,
    feed: Option<Arc<JsonLinesSink>>,
}

/// What became of a slice.
enum SliceEnd {
    /// Put the state back; the job stays in the rotation.
    Continue(Box<SearchState>),
    /// The job is finished (one way or another).
    Terminal(Box<JobOutcome>),
}

fn scheduler_loop(
    shared: Arc<Shared>,
    max_active: usize,
    checkpoint_dir: Option<PathBuf>,
    metrics: Arc<ServerMetrics>,
    cache: Arc<ScoreCache<f64>>,
) {
    loop {
        // Admission waits observed by `promote` under the lock, recorded
        // into metric scopes after it is released.
        let mut admission_waits: Vec<(String, u64)> = Vec::new();
        let slice = {
            let mut inner = shared.inner.lock().unwrap();
            loop {
                if inner.shutdown {
                    return;
                }
                if !inner.paused {
                    promote(&mut inner, max_active, &mut admission_waits);
                    if let Some(id) = inner.rr.pick() {
                        inner.in_flight = Some(id);
                        let job = inner.jobs.get_mut(&id).expect("job in rotation");
                        break Slice {
                            id,
                            tenant: job.tenant.clone(),
                            engine: Arc::clone(&job.engine),
                            state: job.state.take(),
                            frame: job.frame.take(),
                            budget: job.budget,
                            cancel: job.cancel.clone(),
                            // Senders are only dropped at shutdown, and
                            // the scheduler stops picking first.
                            events: job.events.clone().expect("running job has a sender"),
                            feed: job.feed.clone(),
                        };
                    }
                }
                inner = shared.work.wait(inner).unwrap();
            }
        };
        for (tenant, wait_us) in admission_waits.drain(..) {
            metrics.record_admission_wait(&tenant, wait_us);
        }

        let id = slice.id;
        let tenant = slice.tenant.clone();
        let budget = slice.budget;
        let events = slice.events.clone();
        let feed = slice.feed.clone();
        let slice_start = Instant::now();
        let (end, report) = run_slice(slice);
        let epoch_us = slice_start.elapsed().as_micros() as u64;

        let (terminal_outcome, evals_delta) = {
            let mut inner = shared.inner.lock().unwrap();
            inner.in_flight = None;
            let evals_delta = match (&report, inner.jobs.get_mut(&id)) {
                (Some(r), Some(job)) => {
                    let prev = job.last.map_or(0, |l| l.downstream_evals);
                    job.last = Some(JobLast {
                        epochs_completed: r.epochs_completed,
                        base_score: r.base_score,
                        best_score: r.best_score,
                        downstream_evals: r.downstream_evals,
                        elapsed_secs: r.elapsed_secs,
                    });
                    (r.downstream_evals.saturating_sub(prev)) as u64
                }
                _ => 0,
            };
            let outcome = match end {
                SliceEnd::Continue(state) => {
                    if let Some(job) = inner.jobs.get_mut(&id) {
                        job.state = Some(*state);
                    }
                    None
                }
                SliceEnd::Terminal(outcome) => {
                    inner.rr.remove(&id);
                    if let Some(job) = inner.jobs.get_mut(&id) {
                        job.status = outcome.status;
                        job.outcome = Some(outcome.clone());
                        job.state = None;
                        job.frame = None;
                    }
                    Some(outcome)
                }
            };
            shared.work.notify_all();
            (outcome, evals_delta)
        };

        if let Some(r) = &report {
            metrics.record_slice(&SliceSample {
                id,
                tenant: &tenant,
                epoch_us,
                report: r,
                budget,
                evals_delta,
                cache_hit_rate: cache.stats().hit_rate(),
            });
        }

        if let Some(outcome) = terminal_outcome {
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
            let _ = events.send(JobEvent::Done(outcome));
        }
    }
}

fn promote(inner: &mut Inner, max_active: usize, admission_waits: &mut Vec<(String, u64)>) {
    while inner.rr.len() < max_active {
        match inner.queued.pop_front() {
            Some(id) => {
                if let Some(job) = inner.jobs.get_mut(&id) {
                    job.status = JobStatus::Active;
                    admission_waits.push((
                        job.tenant.clone(),
                        job.submitted.elapsed().as_micros() as u64,
                    ));
                    inner.rr.admit(id);
                }
            }
            None => break,
        }
    }
}

/// Run one slice for a job, outside the server lock. Sends the epoch
/// report on the job's stream and feed; terminal outcomes are returned
/// for the scheduler to commit (the Done event is sent after commit, so
/// a waiter never observes a terminal event before the server map does).
/// The report the slice produced (if the engine stepped at all) rides
/// along for the scheduler's metrics commit.
fn run_slice(slice: Slice) -> (SliceEnd, Option<Box<EpochReport>>) {
    let Slice {
        id,
        tenant,
        engine,
        state,
        frame,
        budget,
        cancel,
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

    if cancel.is_cancelled() {
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
    let _ = events.send(JobEvent::Epoch(report.clone()));

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
