//! In-process distribution determinism: a coordinator plus loopback
//! workers (real worker serve loops on threads, real encoded frames on
//! the wire) must reproduce a solo `Engine::run_full` **bitwise** — with
//! one worker, with several, and with a worker crashing mid-search.

use dist::{loopback_pair, Coordinator, LoopbackTransport, Msg, ShardTasks, Transport, Worker};
use eafe::{bootstrap_fpe, EafeConfig, Engine, FpeSearchSpace, RunResult};
use minhash::HashFamily;
use runtime::{fingerprint_frame, ScoreCache, DEFAULT_CACHE_CAPACITY};
use std::sync::{Arc, Mutex};
use tabular::{DataFrame, SynthSpec, Task};

fn fast_config() -> EafeConfig {
    let mut cfg = EafeConfig::fast();
    cfg.stage1_epochs = 2;
    cfg.stage2_epochs = 3;
    cfg.steps_per_epoch = 3;
    cfg
}

fn frame() -> DataFrame {
    SynthSpec::new("dist-loop", 160, 5, Task::Classification)
        .with_seed(23)
        .generate()
        .unwrap()
}

fn fpe() -> eafe::FpeModel {
    let cfg = fast_config();
    let space = FpeSearchSpace {
        families: vec![HashFamily::Ccws],
        dims: vec![16],
        thre: 0.01,
        seed: 9,
    };
    bootstrap_fpe(4, 2, &space, &cfg.evaluator, 9).expect("FPE bootstrap")
}

/// Spawn a worker serve loop on a thread; ignore its exit status (a
/// simulated crash makes `serve` return an error by design).
fn spawn_worker(mut transport: LoopbackTransport) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        let _ = Worker::serve(&mut transport);
    })
}

/// `n` connected loopback workers plus the coordinator-side transports.
fn worker_pool(n: usize) -> (Vec<LoopbackTransport>, Vec<std::thread::JoinHandle<()>>) {
    let mut coordinator_side = Vec::new();
    let mut handles = Vec::new();
    for _ in 0..n {
        let (ours, theirs) = loopback_pair();
        handles.push(spawn_worker(theirs));
        coordinator_side.push(ours);
    }
    (coordinator_side, handles)
}

fn assert_bit_identical(a: &RunResult, b: &RunResult, what: &str) {
    assert_eq!(
        a.base_score.to_bits(),
        b.base_score.to_bits(),
        "{what}: base"
    );
    assert_eq!(
        a.best_score.to_bits(),
        b.best_score.to_bits(),
        "{what}: best"
    );
    assert_eq!(a.downstream_evals, b.downstream_evals, "{what}: evals");
    assert_eq!(
        a.generated_features, b.generated_features,
        "{what}: generated"
    );
    assert_eq!(a.selected, b.selected, "{what}: selected features");
    assert_eq!(a.trace.len(), b.trace.len(), "{what}: trace length");
    for (x, y) in a.trace.iter().zip(&b.trace) {
        assert_eq!(x.score.to_bits(), y.score.to_bits(), "{what}: trace score");
    }
}

/// Solo vs distributed for one engine: identical `RunResult` and an
/// identical engineered frame fingerprint, at each worker count.
fn check_engine(make_engine: &dyn Fn() -> Engine, what: &str) {
    let frame = frame();
    let (solo, solo_frame) = make_engine().run_full(&frame).unwrap();
    let solo_fp = fingerprint_frame(&solo_frame);
    for n_workers in [1usize, 3] {
        let (transports, handles) = worker_pool(n_workers);
        let before = runtime::global_dist_stats();
        let mut coordinator = Coordinator::new(transports);
        let (result, engineered) = coordinator.run(&make_engine(), &frame).unwrap();
        let after = runtime::global_dist_stats();
        for h in handles {
            h.join().unwrap();
        }
        assert_bit_identical(&solo, &result, &format!("{what}, {n_workers} workers"));
        assert_eq!(
            solo_fp,
            fingerprint_frame(&engineered),
            "{what}, {n_workers} workers: engineered frame fingerprint"
        );
        assert!(
            after.shards_completed > before.shards_completed,
            "{what}, {n_workers} workers: workers must actually complete shards"
        );
        assert!(
            result.cache_hits > solo.cache_hits,
            "{what}, {n_workers} workers: warmed run must serve extra cache hits \
             (dist {} vs solo {})",
            result.cache_hits,
            solo.cache_hits
        );
    }
}

#[test]
fn nfs_distribution_is_bitwise_identical_to_solo() {
    check_engine(&|| Engine::nfs(fast_config()), "NFS");
}

#[test]
fn random_drop_distribution_is_bitwise_identical_to_solo() {
    check_engine(&|| Engine::e_afe_d(fast_config(), 0.4), "E-AFE_D");
}

#[test]
fn fpe_two_stage_distribution_is_bitwise_identical_to_solo() {
    check_engine(&|| Engine::e_afe(fast_config(), fpe()), "E-AFE");
}

#[test]
fn killed_worker_reassigns_its_shards_and_stays_bitwise() {
    let frame = frame();
    let (solo, solo_frame) = Engine::nfs(fast_config()).run_full(&frame).unwrap();

    // Three workers, one of which dies after a few sends: its serve loop
    // errors out mid-search and the coordinator must reassign the shard
    // to a survivor without disturbing the result.
    let mut transports = Vec::new();
    let mut handles = Vec::new();
    for budget in [Some(2usize), None, None] {
        let (ours, mut theirs) = loopback_pair();
        if let Some(n) = budget {
            theirs.set_send_budget(n);
        }
        handles.push(spawn_worker(theirs));
        transports.push(ours);
    }

    let before = runtime::global_dist_stats();
    let mut coordinator = Coordinator::new(transports);
    let (result, engineered) = coordinator
        .run(&Engine::nfs(fast_config()), &frame)
        .unwrap();
    let after = runtime::global_dist_stats();
    for h in handles {
        h.join().unwrap();
    }

    assert_bit_identical(&solo, &result, "killed worker");
    assert_eq!(
        fingerprint_frame(&solo_frame),
        fingerprint_frame(&engineered),
        "killed worker: engineered frame fingerprint"
    );
    assert!(
        after.shards_retried > before.shards_retried,
        "the dead worker's shard must be re-dispatched"
    );
    assert_eq!(
        coordinator.live_workers(),
        0,
        "shutdown drains every worker slot"
    );
}

#[test]
fn zero_workers_degrades_to_solo_search() {
    let frame = frame();
    let (solo, solo_frame) = Engine::nfs(fast_config()).run_full(&frame).unwrap();
    let mut coordinator: Coordinator<LoopbackTransport> = Coordinator::new(Vec::new());
    let (result, engineered) = coordinator
        .run(&Engine::nfs(fast_config()), &frame)
        .unwrap();
    assert_bit_identical(&solo, &result, "zero workers");
    assert_eq!(
        fingerprint_frame(&solo_frame),
        fingerprint_frame(&engineered)
    );
}

/// `engine`'s search solo, with every speculated evaluation computed into
/// its score cache before each slice: the cache a coordinator leaves
/// warm when workers answer everything it speculates.
fn warmed_solo(engine: &Engine, frame: &DataFrame) -> RunResult {
    let engine = engine
        .clone()
        .with_cache(Arc::new(ScoreCache::new(DEFAULT_CACHE_CAPACITY)));
    let evaluator = engine.evaluator();
    let mut search = engine.start(frame).unwrap();
    while !search.is_done() {
        let (prefix, _, candidates) = engine.speculate_evals(&search).unwrap();
        for candidate in &candidates {
            let extended = prefix
                .with_extra_columns(std::slice::from_ref(candidate))
                .unwrap();
            evaluator.evaluate(&extended).unwrap();
        }
        engine.step(&mut search).unwrap();
    }
    engine.finish(&search).unwrap().0
}

/// A coordinator-side end that records the candidates of every `Eval`
/// shard it sends, as `(slice, name)`.
struct Spy {
    inner: LoopbackTransport,
    sent: Arc<Mutex<Vec<(u64, String)>>>,
}

impl Transport for Spy {
    fn send(&mut self, msg: &Msg) -> dist::Result<()> {
        if let Msg::Work(shard) = msg {
            if let ShardTasks::Eval { candidates, .. } = &shard.tasks {
                let mut sent = self.sent.lock().unwrap();
                sent.extend(candidates.iter().map(|c| (shard.slice, c.name.clone())));
            }
        }
        self.inner.send(msg)
    }

    fn recv(&mut self) -> dist::Result<Msg> {
        self.inner.recv()
    }
}

#[test]
fn rank_twins_are_dispatched_as_one_evaluation() {
    // Slice 0 of this search speculates `log(f2)` = ln(|f2|+1),
    // `sqrt(f2)` = √|f2| and `(f2*f2)`: three candidates whose bin codes
    // — and so whose CV scores — are one, since each is increasing in |f2|.
    let mut cfg = fast_config();
    cfg.steps_per_epoch = 6;
    cfg.seed = 3;
    let frame = SynthSpec::new("dist-twins", 160, 3, Task::Classification)
        .with_seed(23)
        .generate()
        .unwrap();
    let engine = Engine::nfs(cfg);
    let twins = ["log(f2)", "sqrt(f2)", "(f2*f2)"];
    let search = engine.start(&frame).unwrap();
    let (_, _, speculated) = engine.speculate_evals(&search).unwrap();
    let names: Vec<&str> = speculated.iter().map(|c| c.name.as_str()).collect();
    assert!(
        twins.iter().all(|t| names.contains(t)),
        "slice 0 must speculate all three twins: {names:?}"
    );

    let (solo, solo_frame) = engine.run_full(&frame).unwrap();
    let warmed = warmed_solo(&engine, &frame);
    for n_workers in [1usize, 3] {
        let sent = Arc::new(Mutex::new(Vec::new()));
        let (transports, handles) = worker_pool(n_workers);
        let spies = transports
            .into_iter()
            .map(|inner| Spy {
                inner,
                sent: Arc::clone(&sent),
            })
            .collect();
        let mut coordinator = Coordinator::new(spies);
        let (result, engineered) = coordinator.run(&engine, &frame).unwrap();
        for h in handles {
            h.join().unwrap();
        }
        let what = format!("twins, {n_workers} workers");
        assert_bit_identical(&solo, &result, &what);
        assert_eq!(
            fingerprint_frame(&solo_frame),
            fingerprint_frame(&engineered)
        );
        // The twins the workers never saw were hits all the same: the
        // search misses exactly what a fully warmed search misses.
        assert_eq!(result.cache_misses, warmed.cache_misses, "{what}: misses");
        assert!(
            result.cache_misses < solo.cache_misses,
            "{what}: warmed nothing"
        );
        let sent = sent.lock().unwrap();
        let dispatched = sent
            .iter()
            .filter(|(slice, name)| *slice == 0 && twins.contains(&name.as_str()))
            .count();
        assert_eq!(dispatched, 1, "{what}: slice 0 sent {sent:?}");
    }
}
