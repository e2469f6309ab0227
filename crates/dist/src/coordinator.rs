//! The coordinator: authoritative sequential search plus shard dispatch.
//!
//! The coordinator owns the only `SearchState`. Per slice it speculates
//! the slice's compute-heavy work, keeps one evaluation per rank key,
//! shards it across live workers (shard `i` takes tasks `i, i+n, i+2n,
//! …`), dispatches a wave, collects one result per in-flight shard, and
//! merges returned cache snapshots in ascending shard-index order — then
//! the rank twins' copies of their representatives' scores — before
//! running the real `Engine::step`.
//! Merge order is fixed so the procedure is reproducible, and the merge
//! itself is idempotent (content-addressed, debug-asserted-equal
//! entries) — which together give the determinism contract:
//! solo ≡ 1 worker ≡ N workers, bitwise.
//!
//! Failure handling: any transport error, ticket mismatch, or protocol
//! violation kills the worker slot, re-queues the shard for a live
//! worker (`dist.shards_retried`), and carries on. With zero live
//! workers the warm rounds are skipped and the run continues solo.

use crate::protocol::{Msg, ShardResult, ShardTasks, WorkShard, STREAM_WORKER};
use crate::transport::Transport;
use crate::Result;
use eafe::{Engine, RunResult, SearchState, SelectedColumn};
use runtime::DEFAULT_CACHE_CAPACITY;
use runtime::{derive_seed, dist_counters, CacheSnapshot, Fingerprint, ScoreCache};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;
use std::time::Instant;
use tabular::{Column, DataFrame};

/// Drives one search across a set of worker connections.
///
/// Slots hold `None` once a worker dies; the coordinator never blocks on
/// a dead slot again, so a late replay from a killed worker can never be
/// received, and the ticket check guards the remaining window (a live
/// worker answering out of order).
pub struct Coordinator<T: Transport> {
    workers: Vec<Option<T>>,
    /// Content fingerprints of columns already dispatched for FPE
    /// scoring this run — generated columns recur across epochs, and a
    /// column's signature-cache entries depend only on its content, so
    /// re-dispatching one buys nothing.
    fpe_dispatched: HashSet<Fingerprint>,
    /// The CV score of every rank key ([`eafe::Selection::rank_key`]) a
    /// worker has answered this run: one evaluation per rank identity,
    /// whatever the number of candidates that share it.
    rank_scores: HashMap<Fingerprint, f64>,
}

impl<T: Transport> Coordinator<T> {
    /// Adopt `workers` as the dispatch pool (may be empty — the run then
    /// degrades to plain solo search).
    pub fn new(workers: Vec<T>) -> Self {
        for _ in &workers {
            dist_counters::worker_up();
        }
        Coordinator {
            workers: workers.into_iter().map(Some).collect(),
            fpe_dispatched: HashSet::new(),
            rank_scores: HashMap::new(),
        }
    }

    /// Worker connections still usable.
    pub fn live_workers(&self) -> usize {
        self.workers.iter().filter(|w| w.is_some()).count()
    }

    /// Run `engine`'s search on `frame` to completion, warming caches
    /// through the workers before every slice. Returns exactly what a
    /// solo [`Engine::run_full`] returns — bitwise.
    pub fn run(&mut self, engine: &Engine, frame: &DataFrame) -> Result<(RunResult, DataFrame)> {
        // The search evaluator must share a cache with the merge target;
        // attach one if the caller's engine runs a private cache.
        let cache = engine
            .cache
            .clone()
            .unwrap_or_else(|| Arc::new(ScoreCache::new(DEFAULT_CACHE_CAPACITY)));
        let engine = engine.clone().with_cache(Arc::clone(&cache));
        // Rank keys hold for one dataset, label and scorer: this run's.
        self.rank_scores.clear();
        self.broadcast(&Msg::Hello {
            engine: engine.clone(),
        });
        let mut search = engine.start(frame)?;
        let mut slice: u64 = 0;
        while !search.is_done() {
            self.warm_slice(&engine, &cache, &search, slice)?;
            engine.step(&mut search)?;
            slice += 1;
        }
        self.shutdown();
        Ok(engine.finish(&search)?)
    }

    /// Speculate the next slice's work and warm the caches through the
    /// workers: round 0 merges signature entries, round 1
    /// ([`warm_evals`](Self::warm_evals)) merges downstream scores into
    /// `cache`, the engine's shared score cache.
    /// Errors here are engine errors (speculation itself failed); worker
    /// failures only shrink the pool.
    fn warm_slice(
        &mut self,
        engine: &Engine,
        cache: &ScoreCache<f64>,
        search: &SearchState,
        slice: u64,
    ) -> Result<()> {
        if self.live_workers() == 0 {
            return Ok(());
        }
        let _span = telemetry::span("dist.slice");

        // Pre-filter both rounds so workers only compute what the
        // coordinator is actually missing: shipping work the local
        // caches (or a previous dispatch) already cover would make the
        // wave's critical path longer for zero fresh entries. Filtering
        // is pure dedup — it never changes what `step` computes, so the
        // determinism contract is untouched.
        let mut columns = engine.speculate_fpe_columns(search)?;
        columns.retain(|c| {
            self.fpe_dispatched
                .insert(runtime::fingerprint_values(&c.values))
        });
        if !columns.is_empty() {
            let root = engine.config.seed;
            let shards = make_shards(slice, 0, root, self.live_workers(), columns, |cols| {
                ShardTasks::Fpe { columns: cols }
            });
            let round = self.run_round(shards);
            let merging = Instant::now();
            for result in round {
                let fresh = runtime::sig_cache_merge(&result.sigs);
                note_merge(result.sigs.len(), fresh);
            }
            dist_counters::wire(merging.elapsed().as_micros() as u64);
        }

        if self.live_workers() > 0 {
            self.warm_evals(engine, cache, search, slice)?;
        }
        Ok(())
    }

    /// Round 1 of [`warm_slice`](Self::warm_slice): dispatch the slice's
    /// speculated evaluations the cache lacks, one per rank key, and merge
    /// the scores — each representative's under its own key and every
    /// twin's.
    fn warm_evals(
        &mut self,
        engine: &Engine,
        cache: &ScoreCache<f64>,
        search: &SearchState,
        slice: u64,
    ) -> Result<()> {
        let (prefix, selection, mut candidates) = engine.speculate_evals(search)?;
        // Drop candidates whose evaluation is already in the shared cache
        // (merged from workers or computed by an earlier real step) and
        // slice-internal duplicates — the cache key is the exact
        // fingerprint `step` will probe with. Of the rest, dispatch one per
        // rank key: the others are its rank twins, whose score is the
        // representative's bit for bit (the CV memo's premise), so they
        // wait for it instead of a worker. A candidate binned here for its
        // rank key is not kept: the bin cache holds selected columns only.
        let evaluator = engine.evaluator();
        let budget = selection.bin_budget();
        let mut seen: HashSet<Fingerprint> = HashSet::new();
        let mut ranks: HashSet<Fingerprint> = HashSet::new();
        let mut dispatched_ranks: HashMap<Fingerprint, Fingerprint> = HashMap::new();
        let mut twins: Vec<(Fingerprint, Fingerprint)> = Vec::new();
        candidates.retain(|candidate| {
            if candidate.len() != prefix.n_rows() {
                return false;
            }
            let digest = runtime::fingerprint_values(&candidate.values);
            let key = evaluator.key_of(&selection.extended_key(&candidate.name, digest));
            if !seen.insert(key) || cache.contains(key) {
                return false;
            }
            let column =
                SelectedColumn::with_digest(&candidate.name, &candidate.values, digest, budget);
            let Some(rank) = selection.rank_key(&column) else {
                return true;
            };
            let represented = self.rank_scores.contains_key(&rank) || !ranks.insert(rank);
            if represented {
                twins.push((key, rank));
            } else {
                dispatched_ranks.insert(key, rank);
            }
            !represented
        });
        if !candidates.is_empty() {
            telemetry::count("dist.evals_dispatched", candidates.len() as u64);
            let root = engine.config.seed;
            let shards = make_shards(slice, 1, root, self.live_workers(), candidates, |cands| {
                ShardTasks::Eval {
                    prefix: prefix.clone(),
                    candidates: cands,
                }
            });
            let round = self.run_round(shards);
            let merging = Instant::now();
            for result in round {
                let fresh = cache.merge(&result.scores);
                note_merge(result.scores.len(), fresh);
                for (key, score) in &result.scores.entries {
                    if let Some(&rank) = dispatched_ranks.get(key) {
                        self.rank_scores.insert(rank, *score);
                    }
                }
            }
            dist_counters::wire(merging.elapsed().as_micros() as u64);
        }
        // Twin fan-out; a twin whose representative never came back (its
        // workers died) is left for `step` to compute.
        let mut fanned: Vec<(Fingerprint, f64)> = twins
            .into_iter()
            .filter_map(|(key, rank)| Some((key, *self.rank_scores.get(&rank)?)))
            .collect();
        if !fanned.is_empty() {
            fanned.sort_by_key(|(key, _)| *key);
            let fanned = CacheSnapshot { entries: fanned };
            let fresh = cache.merge(&fanned);
            note_merge(fanned.len(), fresh);
        }
        Ok(())
    }

    /// Dispatch one round of shards and collect their results, waves of
    /// at most one in-flight shard per live worker. Shards whose worker
    /// dies (send failure, recv failure, ticket mismatch) re-queue for
    /// the next wave; the round ends when every shard completed or no
    /// workers remain (undone shards are simply not warmed). Results
    /// come back sorted by shard index — the merge order contract.
    fn run_round(&mut self, shards: Vec<WorkShard>) -> Vec<ShardResult> {
        let mut queue: VecDeque<WorkShard> = shards.into();
        let mut results: Vec<ShardResult> = Vec::new();
        let mut completed: HashSet<u32> = HashSet::new();
        while !queue.is_empty() && self.live_workers() > 0 {
            let wire = Instant::now();
            let wave_started = results.len();
            // Send phase: hand each live worker the next queued shard.
            let mut inflight: Vec<(usize, WorkShard)> = Vec::new();
            for slot in 0..self.workers.len() {
                let Some(worker) = self.workers[slot].as_mut() else {
                    continue;
                };
                let Some(shard) = queue.pop_front() else {
                    break;
                };
                dist_counters::dispatched(1);
                telemetry::count("dist.shards_dispatched", 1);
                if worker.send(&Msg::Work(shard.clone())).is_ok() {
                    inflight.push((slot, shard));
                } else {
                    self.kill(slot);
                    requeue(shard, &mut queue);
                }
            }
            // Collect phase: one result per in-flight shard, validated
            // against its ticket. Every in-flight slot is live (only the
            // send phase kills, and never a slot it sent to); a dead one
            // would count as a failed worker like any other.
            for (slot, shard) in inflight {
                let reply = self.workers[slot].as_mut().map(|w| w.recv());
                match reply {
                    Some(Ok(Msg::Result(result))) if result.matches(&shard) => {
                        // Completed-shard dedup: should a replay slip
                        // through, merge idempotence makes it harmless,
                        // but we don't even merge it twice.
                        if completed.insert(result.shard) {
                            dist_counters::completed(1);
                            telemetry::count("dist.shards_completed", 1);
                            telemetry::record(
                                &format!("dist.worker{slot}.busy_us"),
                                result.busy_us,
                            );
                            results.push(result);
                        }
                    }
                    _ => {
                        self.kill(slot);
                        requeue(shard, &mut queue);
                    }
                }
            }
            // Wire overhead = wave wall-clock minus the critical-path
            // worker's compute time (shards run concurrently, so the
            // slowest shard's busy time overlaps everything else); what
            // remains is serialization, transport, and scheduling.
            let wave_us = wire.elapsed().as_micros() as u64;
            let busy_max = results[wave_started..]
                .iter()
                .map(|r| r.busy_us)
                .max()
                .unwrap_or(0);
            let overhead = wave_us.saturating_sub(busy_max);
            dist_counters::wire(overhead);
            telemetry::record("dist.wire_us", overhead);
        }
        results.sort_by_key(|r| r.shard);
        results
    }

    /// Send `msg` to every live worker, killing slots that fail.
    fn broadcast(&mut self, msg: &Msg) {
        for slot in 0..self.workers.len() {
            let Some(worker) = self.workers[slot].as_mut() else {
                continue;
            };
            if worker.send(msg).is_err() {
                self.kill(slot);
            }
        }
    }

    /// Orderly shutdown: `Bye` to every live worker, then drop them all.
    pub fn shutdown(&mut self) {
        for slot in 0..self.workers.len() {
            if let Some(worker) = self.workers[slot].as_mut() {
                worker.send(&Msg::Bye).ok();
                self.workers[slot] = None;
                dist_counters::worker_down();
            }
        }
    }

    fn kill(&mut self, slot: usize) {
        if self.workers[slot].take().is_some() {
            dist_counters::worker_down();
            telemetry::count("dist.worker_deaths", 1);
        }
    }
}

impl<T: Transport> Drop for Coordinator<T> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn requeue(shard: WorkShard, queue: &mut VecDeque<WorkShard>) {
    dist_counters::retried(1);
    telemetry::count("dist.shards_retried", 1);
    queue.push_back(shard);
}

fn note_merge(total: usize, fresh: usize) {
    dist_counters::merged(total as u64, fresh as u64);
    telemetry::count("dist.entries_merged", total as u64);
}

/// Partition `tasks` into `n_shards` strided shards: shard `i` holds
/// tasks `i, i+n, i+2n, …`, each stamped with its ticket seed
/// `derive_seed(root, STREAM_WORKER, i)`. Striding keeps shard loads
/// balanced whatever the task count, and the fixed rule means shard
/// contents depend only on (task list, shard count) — never on worker
/// identity or scheduling.
fn make_shards(
    slice: u64,
    round: u32,
    root: u64,
    n_shards: usize,
    tasks: Vec<Column>,
    build: impl Fn(Vec<Column>) -> ShardTasks,
) -> Vec<WorkShard> {
    let n_shards = n_shards.min(tasks.len()).max(1);
    let mut buckets: Vec<Vec<Column>> = (0..n_shards).map(|_| Vec::new()).collect();
    for (k, task) in tasks.into_iter().enumerate() {
        buckets[k % n_shards].push(task);
    }
    buckets
        .into_iter()
        .enumerate()
        .map(|(i, bucket)| WorkShard {
            slice,
            round,
            shard: i as u32,
            seed: derive_seed(root, STREAM_WORKER, i as u64),
            tasks: build(bucket),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{loopback_pair, wire_lock, LoopbackTransport};
    use crate::Worker;
    use eafe::EafeConfig;
    use tabular::{SynthSpec, Task};

    /// A worker end that forgets what its connection carried before
    /// every message, so the second `Eval` shard it gets references
    /// columns it no longer holds.
    struct Forgetful(LoopbackTransport);

    impl Transport for Forgetful {
        fn send(&mut self, msg: &Msg) -> Result<()> {
            self.0.send(msg)
        }

        fn recv(&mut self) -> Result<Msg> {
            self.0.forget();
            self.0.recv()
        }
    }

    #[test]
    fn a_worker_out_of_step_is_a_dead_worker() {
        let _wire = wire_lock();
        let mut cfg = EafeConfig::fast();
        cfg.stage2_epochs = 3;
        cfg.steps_per_epoch = 3;
        let frame = SynthSpec::new("forgetful", 120, 4, Task::Classification)
            .with_seed(3)
            .generate()
            .unwrap();
        let (solo, _) = Engine::nfs(cfg.clone()).run_full(&frame).unwrap();

        let (forgetful, theirs) = loopback_pair();
        let failed = std::thread::spawn(move || Worker::serve(&mut Forgetful(theirs)));
        let (healthy, mut theirs) = loopback_pair();
        let served = std::thread::spawn(move || Worker::serve(&mut theirs));
        let before = runtime::global_dist_stats();
        let mut coordinator = Coordinator::new(vec![forgetful, healthy]);
        let (result, _) = coordinator.run(&Engine::nfs(cfg), &frame).unwrap();
        let after = runtime::global_dist_stats();

        assert!(
            matches!(failed.join().unwrap(), Err(crate::DistError::Protocol(_))),
            "an unheld reference must end the session with a protocol error"
        );
        served.join().unwrap().unwrap();
        assert!(after.shards_retried > before.shards_retried);
        assert_eq!(result.best_score.to_bits(), solo.best_score.to_bits());
        assert_eq!(result.selected, solo.selected);
        assert_eq!(result.downstream_evals, solo.downstream_evals);
    }

    #[test]
    fn strided_sharding_balances_and_stamps_tickets() {
        let tasks: Vec<Column> = (0..7)
            .map(|i| Column::new(format!("c{i}"), vec![i as f64]))
            .collect();
        let shards = make_shards(2, 0, 41, 3, tasks, |columns| ShardTasks::Fpe { columns });
        assert_eq!(shards.len(), 3);
        let sizes: Vec<usize> = shards
            .iter()
            .map(|s| match &s.tasks {
                ShardTasks::Fpe { columns } => columns.len(),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(sizes, vec![3, 2, 2]);
        for (i, shard) in shards.iter().enumerate() {
            assert_eq!(shard.shard, i as u32);
            assert_eq!(shard.seed, derive_seed(41, STREAM_WORKER, i as u64));
            assert_eq!(shard.slice, 2);
        }
        // Shard 0 holds tasks 0, 3, 6 — the strided rule.
        let ShardTasks::Fpe { columns } = &shards[0].tasks else {
            unreachable!()
        };
        let names: Vec<&str> = columns.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["c0", "c3", "c6"]);
    }

    #[test]
    fn more_shards_than_tasks_collapses_to_task_count() {
        let tasks = vec![Column::new("only", vec![1.0])];
        let shards = make_shards(0, 1, 7, 4, tasks, |columns| ShardTasks::Fpe { columns });
        assert_eq!(shards.len(), 1);
    }
}
