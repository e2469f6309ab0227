//! The worker side: a serve loop that executes shards as pure functions.
//!
//! A worker holds no search state. `Hello` installs an engine (method
//! definition only — the worker builds its own private evaluator from
//! it), each `Work` shard is computed and answered with exactly one
//! `Result`, and `Bye` (or EOF) ends the session. Because every task is
//! a pure function of the shard contents and the engine definition,
//! re-executing a shard after a crash-reassignment produces identical
//! fingerprint-keyed entries — the property the coordinator's idempotent
//! merge leans on.

use crate::protocol::{Msg, ShardResult, ShardTasks, WorkShard};
use crate::transport::Transport;
use crate::{DistError, Result};
use eafe::{CachedEvaluator, Engine, SelectedColumn, Selection};
use runtime::CacheSnapshot;
use std::time::Instant;

/// Stateless worker entry point.
pub struct Worker;

/// Per-session state: the installed engine and its evaluator.
struct Session {
    engine: Engine,
    evaluator: CachedEvaluator,
}

impl Session {
    fn new(engine: Engine) -> Self {
        let evaluator = engine.evaluator();
        Session { engine, evaluator }
    }

    /// Execute one shard. Pure: the result depends only on the shard and
    /// the installed engine definition.
    fn execute(&mut self, shard: WorkShard) -> Result<ShardResult> {
        let _span = telemetry::span("dist.shard");
        let start = Instant::now();
        let mut scores = CacheSnapshot::empty();
        let mut sigs = CacheSnapshot::empty();
        match shard.tasks {
            ShardTasks::Fpe { columns } => {
                // Score through the process-wide signature cache and ship
                // back the delta: everything touched since `baseline`,
                // which is a superset of the new sketches — harmless,
                // because the coordinator's merge is idempotent.
                let baseline = runtime::sig_cache_tick();
                for column in &columns {
                    self.engine.fpe_score(&column.values)?;
                }
                sigs = runtime::sig_cache_snapshot_since(baseline);
            }
            ShardTasks::Eval { prefix, candidates } => {
                // Key each evaluation exactly as the sequential search
                // does, so the content-addressed key matches the one
                // `Engine::step` will look up; a miss reads the prefix's
                // bins plus the candidate's (a frame only for a model
                // kind that reads raw values). The prefix joins a
                // selection, so the bin cache keeps its bins for later
                // shards; a candidate's bins leave with the candidate.
                let label = prefix.label();
                let budget = self.evaluator.scorer().bin_budget(prefix.task());
                let mut selection = Selection::new(&prefix.name, prefix.n_rows(), label, budget);
                for c in prefix.columns() {
                    selection.push(SelectedColumn::of_values(&c.name, &c.values, budget));
                }
                let mut entries = Vec::with_capacity(candidates.len());
                for candidate in &candidates {
                    let digest = runtime::fingerprint_values(&candidate.values);
                    let key = self
                        .evaluator
                        .key_of(&selection.extended_key(&candidate.name, digest));
                    let score = self
                        .evaluator
                        .evaluate_keyed(key, |scorer| {
                            let extra = SelectedColumn::with_digest(
                                &candidate.name,
                                &candidate.values,
                                digest,
                                budget,
                            );
                            scorer.evaluate_selection(&selection, Some(&extra), label, || {
                                let frame =
                                    prefix.with_extra_columns(std::slice::from_ref(candidate));
                                Ok::<_, eafe::EafeError>(frame?)
                            })
                        })
                        .map_err(|e| DistError::Task(e.to_string()))?;
                    entries.push((key, score));
                }
                // Snapshot contract: ascending fingerprint order, no
                // duplicates (repeat candidates evaluate to the same
                // score via the worker's own cache).
                entries.sort_by_key(|(key, _)| *key);
                entries.dedup_by_key(|(key, _)| *key);
                scores = CacheSnapshot { entries };
            }
        }
        telemetry::count("dist.shards_executed", 1);
        Ok(ShardResult {
            slice: shard.slice,
            round: shard.round,
            shard: shard.shard,
            seed: shard.seed,
            scores,
            sigs,
            busy_us: start.elapsed().as_micros() as u64,
        })
    }
}

impl Worker {
    /// Serve one coordinator session over `transport`: install the
    /// engine from `Hello`, answer every `Work` with a `Result`, return
    /// cleanly on `Bye` or EOF. Any transport or task error propagates —
    /// the caller (a worker process `main`, or a test thread) exits and
    /// the coordinator observes a dead peer.
    pub fn serve<T: Transport>(transport: &mut T) -> Result<()> {
        let mut session: Option<Session> = None;
        loop {
            let msg = match transport.recv() {
                Ok(msg) => msg,
                // A vanished coordinator is an orderly end of session
                // from the worker's point of view.
                Err(DistError::Io(_)) => return Ok(()),
                Err(e) => return Err(e),
            };
            match msg {
                Msg::Hello { engine } => session = Some(Session::new(engine)),
                Msg::Work(shard) => {
                    let session = session
                        .as_mut()
                        .ok_or_else(|| DistError::Protocol("Work before Hello".into()))?;
                    let result = session.execute(shard)?;
                    transport.send(&Msg::Result(result))?;
                }
                Msg::Bye => return Ok(()),
                Msg::Result(_) => {
                    return Err(DistError::Protocol("worker received a Result frame".into()))
                }
            }
        }
    }
}
