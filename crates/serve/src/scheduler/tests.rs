#![cfg(test)]
//! The scheduler driven slice by slice: real engines and the driver's own
//! `run_slice`, on instants the test makes up — no thread, no sleep, no
//! race. Each test's assertion is exact because nothing runs between two
//! calls but the test.

use super::*;
use crate::server::run_slice;
use serde::Value;
use std::sync::mpsc::{self, Receiver};
use std::time::Duration;
use tabular::{SynthSpec, Task};

fn frame() -> DataFrame {
    SynthSpec::new("serve-core", 150, 4, Task::Classification)
        .with_seed(7)
        .generate()
        .unwrap()
}

fn fast_engine() -> Engine {
    let mut cfg = eafe::EafeConfig::fast();
    cfg.stage2_epochs = 3;
    cfg.steps_per_epoch = 3;
    Engine::nfs(cfg)
}

/// Two-stage E-AFE with a small FPE model: its stage-1 checkpoints hold
/// replayed lineages.
fn e_afe_engine() -> Engine {
    let cfg = eafe::EafeConfig::fast();
    let space = eafe::FpeSearchSpace {
        families: vec![minhash::HashFamily::Ccws],
        dims: vec![16],
        thre: 0.0,
        seed: 1,
    };
    let fpe = eafe::bootstrap_fpe(3, 1, &space, &cfg.evaluator, 7).unwrap();
    Engine::e_afe(cfg, fpe)
}

/// More epochs than any test runs, and no early stop.
fn long_engine() -> Engine {
    let mut cfg = eafe::EafeConfig::fast();
    cfg.stage2_epochs = 200;
    cfg.steps_per_epoch = 2;
    cfg.early_stop_patience = None;
    Engine::nfs(cfg)
}

fn submit(
    s: &mut Scheduler,
    engine: Engine,
    budget: Budget,
    now: Instant,
) -> Result<(JobId, Receiver<JobEvent>)> {
    let (tx, rx) = mpsc::channel();
    let job = Job::new(
        "acme".into(),
        Arc::new(engine),
        budget,
        Some(frame()),
        None,
        tx,
    );
    let id = s.admit(None, job, now, |_| Ok(None))?;
    Ok((id, rx))
}

/// Re-admit a checkpoint the way `JobServer::resume` does.
fn restore(s: &mut Scheduler, cp: JobCheckpoint, feed: Feed, now: Instant) -> Receiver<JobEvent> {
    let (tx, rx) = mpsc::channel();
    let engine = Arc::new(cp.engine);
    let job = Job::new(cp.tenant, engine, cp.budget, cp.frame, cp.state, tx);
    s.admit(Some(JobId(cp.id)), job, now, |_| Ok(feed)).unwrap();
    rx
}

/// One turn of the driver: pick, run the slice, commit. `None` when
/// nothing is runnable.
fn turn(s: &mut Scheduler, now: Instant) -> Option<(JobId, Option<Box<JobOutcome>>)> {
    let (slice, _) = s.next_slice(now).unwrap()?;
    let id = slice.id;
    let (end, report) = run_slice(slice);
    let (outcome, _) = s.commit(id, end, report.as_deref(), 0, 0.0);
    Some((id, outcome))
}

/// Turns until nothing is runnable; the terminal outcomes, in order.
fn run_out(s: &mut Scheduler, now: Instant) -> Vec<JobOutcome> {
    std::iter::from_fn(|| turn(s, now))
        .filter_map(|(_, outcome)| outcome.map(|o| *o))
        .collect()
}

fn epochs_on(rx: &Receiver<JobEvent>) -> Vec<usize> {
    rx.try_iter()
        .map(|ev| match ev {
            JobEvent::Epoch(r) => r.epochs_completed,
            JobEvent::Done(_) => panic!("only the driver sends Done"),
        })
        .collect()
}

/// Serialize a checkpoint as the server writes it.
fn to_json(cp: &JobCheckpoint) -> String {
    serde_json::to_string(cp).unwrap()
}

#[test]
fn a_cancel_lands_at_the_next_boundary() {
    let t0 = Instant::now();
    let mut s = Scheduler::new(4, 64);
    let (id, rx) = submit(&mut s, long_engine(), Budget::unlimited(), t0).unwrap();
    assert!(turn(&mut s, t0).unwrap().1.is_none());
    assert_eq!(s.status(id).unwrap(), JobStatus::Active);

    s.cancel(id).unwrap();
    let (_, outcome) = turn(&mut s, t0).unwrap();
    let outcome = outcome.expect("the slice after a cancel is the last");
    assert_eq!(outcome.status, JobStatus::Cancelled);
    assert_eq!(outcome.epochs, 1, "no epoch runs after the cancel");
    assert!(outcome.result.is_some(), "anytime: the best so far is kept");
    assert_eq!(epochs_on(&rx), vec![1]);
    assert_eq!(s.status(id).unwrap(), JobStatus::Cancelled);
    assert!(
        turn(&mut s, t0).is_none(),
        "a cancelled job leaves the rotation"
    );

    // A job cancelled in the queue never steps, and has nothing to keep.
    let (id, rx) = submit(&mut s, long_engine(), Budget::unlimited(), t0).unwrap();
    s.cancel(id).unwrap();
    let outcome = run_out(&mut s, t0);
    assert_eq!(outcome.len(), 1);
    assert_eq!(
        (outcome[0].status, outcome[0].epochs),
        (JobStatus::Cancelled, 0)
    );
    assert!(outcome[0].result.is_none());
    assert!(epochs_on(&rx).is_empty());
    assert!(matches!(
        s.cancel(JobId(99)),
        Err(ServeError::UnknownJob(JobId(99)))
    ));
}

#[test]
fn the_queue_bound_is_exact_and_a_refusal_spends_no_id() {
    let t0 = Instant::now();
    let mut s = Scheduler::new(1, 2);
    let (a, _ra) = submit(&mut s, fast_engine(), Budget::unlimited(), t0).unwrap();
    let (b, _rb) = submit(&mut s, fast_engine(), Budget::unlimited(), t0).unwrap();
    assert!(matches!(
        submit(&mut s, fast_engine(), Budget::unlimited(), t0),
        Err(ServeError::QueueFull { capacity: 2 })
    ));
    assert_eq!((a, b), (JobId(1), JobId(2)));
    assert_eq!(s.depth(), (2, 0));

    // Promotion frees one place; the wait is measured on the given clock.
    let (slice, waits) = s
        .next_slice(t0 + Duration::from_millis(5))
        .unwrap()
        .unwrap();
    assert_eq!(slice.id, a);
    assert_eq!(waits, vec![("acme".to_string(), 5_000)]);
    assert_eq!(s.depth(), (1, 1));
    let (c, _rc) = submit(&mut s, fast_engine(), Budget::unlimited(), t0).unwrap();
    assert_eq!(c, JobId(3), "the refused submission took no id");
    assert!(matches!(
        submit(&mut s, fast_engine(), Budget::unlimited(), t0),
        Err(ServeError::QueueFull { capacity: 2 })
    ));
    assert_eq!(s.status(c).unwrap(), JobStatus::Queued);
}

#[test]
fn after_shutdown_nothing_is_admitted_or_sliced_and_every_stream_closes() {
    let t0 = Instant::now();
    let mut s = Scheduler::new(4, 64);
    let (_, rx) = submit(&mut s, fast_engine(), Budget::unlimited(), t0).unwrap();
    s.shutdown();
    assert!(matches!(
        submit(&mut s, fast_engine(), Budget::unlimited(), t0),
        Err(ServeError::ServerStopped)
    ));
    assert!(matches!(s.next_slice(t0), Err(ServeError::ServerStopped)));
    assert!(
        rx.recv().is_err(),
        "the admitted job's sender went with the shutdown"
    );
    // The job never ran: it is still checkpointed.
    assert_eq!(s.checkpoints().unwrap().len(), 1);
}

#[test]
fn rotation_is_strict() {
    let t0 = Instant::now();
    let (n, k) = (3, 10);
    // One slot to spare, so a late admission joins the rotation at once.
    let mut s = Scheduler::new(n + 1, 64);
    let admit = |s: &mut Scheduler| submit(s, long_engine(), Budget::unlimited(), t0).unwrap().0;
    let ids: Vec<JobId> = (0..n).map(|_| admit(&mut s)).collect();
    let picks: Vec<JobId> = (0..k).map(|_| turn(&mut s, t0).unwrap().0).collect();
    let expected: Vec<JobId> = ids.iter().copied().cycle().take(k).collect();
    assert_eq!(picks, expected, "admission order, then cyclic");
    let counts: Vec<usize> = ids
        .iter()
        .map(|id| picks.iter().filter(|p| *p == id).count())
        .collect();
    let (hi, lo) = (counts.iter().max().unwrap(), counts.iter().min().unwrap());
    assert!(hi - lo <= 1, "slice counts {counts:?}");

    // The rotation goes on where it was and a late admission takes the
    // back; a cancelled job runs its last slice in its turn and leaves,
    // and the others keep their order.
    let (a, b, c) = (ids[0], ids[1], ids[2]);
    let late = admit(&mut s);
    s.cancel(c).unwrap();
    let picks: Vec<JobId> = (0..7).map(|_| turn(&mut s, t0).unwrap().0).collect();
    assert_eq!(picks, vec![b, c, a, late, b, a, late]);
    assert_eq!(s.depth(), (0, 3));
}

#[test]
fn a_checkpoint_waits_for_the_slice_in_flight_and_holds_the_rotation_until_taken() {
    let t0 = Instant::now();
    let mut s = Scheduler::new(4, 64);
    let (id, _rx) = submit(&mut s, long_engine(), Budget::unlimited(), t0).unwrap();
    let (slice, _) = s.next_slice(t0).unwrap().unwrap();
    assert!(s.checkpoints().is_none(), "the job's state is in flight");
    let (end, report) = run_slice(slice);
    s.commit(id, end, report.as_deref(), 0, 0.0);
    assert!(
        s.next_slice(t0).unwrap().is_none(),
        "no slice starts before the waiting checkpoint has its snapshot"
    );
    let cps = s.checkpoints().unwrap();
    assert_eq!(cps.len(), 1);
    assert_eq!(cps[0].state.as_ref().unwrap().epochs_completed(), 1);
    assert!(s.next_slice(t0).unwrap().is_some(), "the rotation runs on");
}

#[test]
fn a_never_sliced_job_checkpoints_its_frame_and_resumes_bit_identical() {
    let t0 = Instant::now();
    let solo = fast_engine().run(&frame()).unwrap();
    let mut s = Scheduler::new(4, 64);
    submit(&mut s, fast_engine(), Budget::unlimited(), t0).unwrap();
    let (id, _rx) = submit(&mut s, fast_engine(), Budget::unlimited(), t0).unwrap();
    let mut cps = s.checkpoints().unwrap();
    assert_eq!(cps.len(), 2);
    let cp = JobCheckpoint::parse(to_json(&cps.remove(1)).as_bytes()).unwrap();
    assert_eq!(cp.id, id.0);
    assert!(
        cp.state.is_none() && cp.frame.is_some(),
        "the frame-only shape"
    );

    let mut resumed = Scheduler::new(4, 64);
    restore(&mut resumed, cp, None, t0);
    let (next, _rx) = submit(&mut resumed, fast_engine(), Budget::epochs(1), t0).unwrap();
    assert_eq!(next, JobId(id.0 + 1), "new ids follow the restored ones");
    let outcomes = run_out(&mut resumed, t0);
    let outcome = outcomes.iter().find(|o| o.id == id).unwrap();
    assert_eq!(outcome.status, JobStatus::Completed);
    let result = outcome.result.as_ref().unwrap();
    assert_eq!(result.best_score.to_bits(), solo.best_score.to_bits());
    assert_eq!(result.selected, solo.selected);
    // Two checkpoints of one id, or one of the last id there is, are
    // refused: either would let a later job overwrite another.
    for id in [id, JobId(u64::MAX)] {
        let (tx, _rx) = mpsc::channel();
        let engine = Arc::new(fast_engine());
        let job = Job::new("x".into(), engine, Budget::unlimited(), None, None, tx);
        assert!(matches!(
            resumed.admit(Some(id), job, t0, |_| Ok(None)),
            Err(ServeError::Corrupt(_))
        ));
    }
}

#[test]
fn a_resumed_stream_continues_where_the_checkpoint_left_off() {
    let t0 = Instant::now();
    let dir = std::env::temp_dir().join(format!("serve-core-{}-stream", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("job-1.jsonl");
    let feed = || Some(Arc::new(JsonLinesSink::create(&path).unwrap()));

    let mut s = Scheduler::new(4, 64);
    let (tx, rx) = mpsc::channel();
    let job = Job::new(
        "acme".into(),
        Arc::new(long_engine()),
        Budget::epochs(6),
        Some(frame()),
        None,
        tx,
    );
    let id = s.admit(None, job, t0, |_| Ok(feed())).unwrap();
    turn(&mut s, t0);
    turn(&mut s, t0);
    assert_eq!(epochs_on(&rx), vec![1, 2]);
    let cp = s.checkpoints().unwrap().pop().unwrap();

    // The restart: a new table, and the feed truncated on re-admission.
    let mut resumed = Scheduler::new(4, 64);
    let rx = restore(
        &mut resumed,
        JobCheckpoint::parse(to_json(&cp).as_bytes()).unwrap(),
        feed(),
        t0,
    );
    let outcomes = run_out(&mut resumed, t0);
    assert_eq!(
        epochs_on(&rx),
        vec![3, 4, 5, 6],
        "the stream continues, replays nothing and skips nothing"
    );
    assert_eq!(
        (outcomes[0].id, outcomes[0].status),
        (id, JobStatus::BudgetExhausted)
    );
    assert_eq!(outcomes[0].epochs, 6);

    let feed_epochs: Vec<usize> = std::fs::read_to_string(&path)
        .unwrap()
        .lines()
        .filter_map(|l| match telemetry::Event::from_json(l).unwrap() {
            telemetry::Event::Span(s) if s.name == "serve.epoch" => s
                .fields
                .iter()
                .find(|(k, _)| k == "epochs_completed")
                .map(|(_, v)| *v as usize),
            _ => None,
        })
        .collect();
    assert_eq!(
        feed_epochs,
        vec![3, 4, 5, 6],
        "the feed holds the post-restart epochs"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The value at `path` in a checkpoint document: map entries by key,
/// array items by index.
fn at<'a>(doc: &'a mut Value, path: &[&str]) -> &'a mut Value {
    path.iter().fold(doc, |v, key| match v {
        Value::Map(entries) => entries
            .iter_mut()
            .find_map(|(k, v)| (k == key).then_some(v))
            .unwrap_or_else(|| panic!("checkpoint has no `{key}`")),
        Value::Array(items) => &mut items[key.parse::<usize>().unwrap()],
        other => panic!("expected a map or an array around `{key}`, found {other:?}"),
    })
}

#[test]
fn a_checkpoint_with_fewer_policies_than_subgroups_is_corrupt_not_a_panic() {
    let t0 = Instant::now();
    let mut s = Scheduler::new(4, 64);
    submit(&mut s, long_engine(), Budget::epochs(6), t0).unwrap();
    turn(&mut s, t0);
    let cp = s.checkpoints().unwrap().pop().unwrap();

    // Drop the last agent's policy from the started job's search state.
    let mut doc = serde_json::parse(&to_json(&cp)).unwrap();
    match at(&mut doc, &["state", "policies"]) {
        Value::Array(policies) => {
            assert_eq!(policies.len(), frame().n_cols());
            policies.pop();
        }
        other => panic!("policies is not an array: {other:?}"),
    }
    match JobCheckpoint::parse(serde_json::to_string(&doc).unwrap().as_bytes()) {
        Err(msg) => assert!(msg.contains("policies"), "{msg}"),
        Ok(_) => panic!("a truncated checkpoint must not decode"),
    }
}

/// A started checkpoint of `engine` after `turns` slices, with the lineage
/// field at `path` (under the search state) set to `value`, decoded.
fn with_lineage_field(
    engine: Engine,
    turns: usize,
    path: &[&str],
    value: i64,
) -> std::result::Result<JobCheckpoint, String> {
    let t0 = Instant::now();
    let mut s = Scheduler::new(4, 64);
    submit(&mut s, engine, Budget::unlimited(), t0).unwrap();
    for _ in 0..turns {
        turn(&mut s, t0);
    }
    let cp = s.checkpoints().unwrap().pop().unwrap();
    let mut doc = serde_json::parse(&to_json(&cp)).unwrap();
    JobCheckpoint::parse(serde_json::to_string(&doc).unwrap().as_bytes())
        .expect("the unedited checkpoint decodes");
    let field = at(at(&mut doc, &["state"]), path);
    assert!(matches!(field, Value::I64(_)), "{path:?} is {field:?}");
    *field = Value::I64(value);
    JobCheckpoint::parse(serde_json::to_string(&doc).unwrap().as_bytes())
}

#[test]
fn a_checkpoint_with_a_bad_lineage_is_corrupt_not_a_panic() {
    let refused = |cp: std::result::Result<JobCheckpoint, String>, what: &str| match cp {
        Err(msg) => assert!(msg.contains("lineage"), "{what}: {msg}"),
        Ok(_) => panic!("{what}: a bad lineage must not decode"),
    };
    // The NFS job has accepted a member into subgroup 0 after two slices
    // (`frame()` has four subgroups).
    let member = ["state", "store", "accepted", "0", "0"];
    let field = |name| [&member[..], &[name]].concat();
    refused(
        with_lineage_field(long_engine(), 2, &field("agent"), 4),
        "a member of an agent outside the subgroups",
    );
    refused(
        with_lineage_field(long_engine(), 2, &field("agent"), 1),
        "a member whose lineage is another subgroup's",
    );
    refused(
        with_lineage_field(long_engine(), 2, &field("a"), 1),
        "a member built from itself",
    );
    // E-AFE after its first stage-1 epoch: candidates wait for replay
    // against subgroups of one member each.
    let replayed = ["replay", "entries", "0", "1"];
    let field = |name| [&replayed[..], &[name]].concat();
    refused(
        with_lineage_field(e_afe_engine(), 1, &field("agent"), 4),
        "a replayed candidate of an agent outside the subgroups",
    );
    refused(
        with_lineage_field(e_afe_engine(), 1, &field("b"), 1),
        "a replayed candidate whose parent its subgroup does not hold",
    );
}

#[test]
fn a_version_3_checkpoint_is_refused_by_name() {
    match edited_checkpoint(&[(r#"{"version":4,"#, r#"{"version":3,"#)]) {
        Err(msg) => assert_eq!(msg, "unsupported checkpoint version 3"),
        Ok(_) => panic!("a version-3 checkpoint stores generated columns and must not decode"),
    }
}

/// A never-sliced job's checkpoint text with `edits` applied.
fn edited_checkpoint(edits: &[(&str, &str)]) -> std::result::Result<JobCheckpoint, String> {
    let mut s = Scheduler::new(4, 64);
    submit(&mut s, fast_engine(), Budget::unlimited(), Instant::now()).unwrap();
    let mut text = to_json(&s.checkpoints().unwrap()[0]);
    for (from, to) in edits {
        assert!(text.contains(from), "the checkpoint carries {from}");
        text = text.replace(from, to);
    }
    JobCheckpoint::parse(text.as_bytes())
}

#[test]
fn a_checkpoint_with_a_retired_config_key_resumes_bit_identical() {
    // Checkpoints written before the per-sample NN trainer left the
    // library carry `"backend":"Batched"` in the evaluator's MLP config;
    // older ones also carry the engine's `signature_dim` / `hash_family`
    // (the FPE model's compressor holds its own `d` and family) and the
    // forest's `n_threads` (the process budget is the one thread knob).
    // The keys are ignored — none could change a result — and the version
    // is not bumped.
    let t0 = Instant::now();
    let solo = fast_engine().run(&frame()).unwrap();
    let cp = edited_checkpoint(&[
        (r#""mlp":{"#, r#""mlp":{"backend":"Batched","#),
        (
            r#""replay_capacity":"#,
            r#""signature_dim":16,"hash_family":"Ccws","replay_capacity":"#,
        ),
        (r#""forest":{"#, r#""forest":{"n_threads":0,"#),
    ])
    .unwrap();
    let mut s = Scheduler::new(4, 64);
    restore(&mut s, cp, None, t0);
    let result = run_out(&mut s, t0).pop().unwrap().result.unwrap();
    assert_eq!(result.best_score.to_bits(), solo.best_score.to_bits());
    assert_eq!(result.selected, solo.selected);
}

#[test]
fn a_checkpoint_naming_the_deleted_split_finder_is_corrupt_not_a_silent_switch() {
    // Exact and histogram trees differ on continuous data: a checkpoint
    // that asks for the exact finder is refused when it is read (not by a
    // panic in a slice), naming what it asked for.
    match edited_checkpoint(&[(r#""split":"Histogram""#, r#""split":"Exact""#)]) {
        Err(msg) => assert!(msg.contains("unknown variant `Exact`"), "{msg}"),
        Ok(_) => panic!("a checkpoint naming a deleted split finder must not decode"),
    }
}

/// A checkpoint of each shape: never sliced (frame only), started
/// (search state, policies, accepted members) and in stage 1 (replayed
/// lineages).
fn checkpoint_texts() -> &'static [Vec<u8>] {
    static TEXTS: std::sync::OnceLock<Vec<Vec<u8>>> = std::sync::OnceLock::new();
    TEXTS.get_or_init(|| {
        let t0 = Instant::now();
        let mut s = Scheduler::new(2, 64);
        submit(&mut s, long_engine(), Budget::unlimited(), t0).unwrap();
        submit(&mut s, e_afe_engine(), Budget::unlimited(), t0).unwrap();
        submit(&mut s, fast_engine(), Budget::unlimited(), t0).unwrap();
        for _ in 0..3 {
            turn(&mut s, t0);
        }
        let cps = s.checkpoints().unwrap();
        assert_eq!(cps.iter().filter(|cp| cp.state.is_some()).count(), 2);
        assert!(cps.iter().any(|cp| cp.frame.is_some()));
        cps.iter().map(|cp| to_json(cp).into_bytes()).collect()
    })
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(1000))]

    #[test]
    fn mutated_checkpoints_decode_or_fail_typed(
        which in 0usize..3,
        kind in 0u8..6,
        at in 0usize..1_000_000,
        word in 0u64..u64::MAX,
    ) {
        let bytes = crate::mutate::mutate(&checkpoint_texts()[which], kind, at, word);
        // A panic fails the case; a checkpoint or an error message passes.
        let _ = JobCheckpoint::parse(&bytes);
    }
}

#[test]
fn a_restored_job_reports_its_figures_before_its_first_slice() {
    let t0 = Instant::now();
    let mut s = Scheduler::new(4, 64);
    submit(&mut s, long_engine(), Budget::epochs(10), t0).unwrap();
    for _ in 0..3 {
        turn(&mut s, t0);
    }
    let cp = s.checkpoints().unwrap().pop().unwrap();
    let state = cp.state.clone().unwrap();
    assert_eq!(state.epochs_completed(), 3);

    let mut resumed = Scheduler::new(4, 64);
    restore(&mut resumed, cp, None, t0);
    let rows = resumed.rows();
    let row = &rows[0];
    assert_eq!(row.epochs_completed, 3);
    assert_eq!(row.base_score.to_bits(), state.base_score().to_bits());
    assert_eq!(row.best_score.to_bits(), state.best_score().to_bits());
    assert_eq!(row.downstream_evals, state.downstream_evals());
    assert_eq!(row.elapsed_secs.to_bits(), state.elapsed_secs().to_bits());
    assert!((row.budget_remaining - 0.7).abs() < 1e-12);
    assert!(
        resumed.series().is_empty(),
        "series hold only slices this server ran"
    );

    let (slice, _) = resumed.next_slice(t0).unwrap().unwrap();
    let id = slice.id;
    let (end, report) = run_slice(slice);
    let report = report.unwrap();
    let (_, delta) = resumed.commit(id, end, Some(&report), 0, 0.0);
    assert!(report.downstream_evals > state.downstream_evals());
    assert_eq!(
        delta as usize,
        report.downstream_evals - state.downstream_evals(),
        "the first slice after a restore is charged only its own evaluations"
    );
}

#[test]
fn a_job_keeps_its_newest_256_slices_and_its_row_is_the_newest() {
    let t0 = Instant::now();
    let engine = fast_engine();
    let state = engine.start(&frame()).unwrap();
    let mut evals = state.downstream_evals();
    let mut s = Scheduler::new(4, 64);
    let (tx, _rx) = mpsc::channel();
    let job = Job::new(
        "acme".into(),
        Arc::new(engine),
        Budget::epochs(400),
        None,
        Some(state),
        tx,
    );
    let id = s.admit(None, job, t0, |_| Ok(None)).unwrap();
    let report = |k: usize| EpochReport {
        stage: eafe::SearchStage::Stage2,
        epoch: k - 1,
        epochs_completed: k,
        base_score: 0.5,
        best_score: 0.5 + k as f64 / 1000.0,
        best_features: vec![],
        generated: 0,
        downstream_evals: 2 * k,
        elapsed_secs: k as f64 / 4.0,
        done: false,
    };
    for k in 1..=300 {
        let (slice, _) = s.next_slice(t0).unwrap().unwrap();
        let end = SliceEnd::Continue(Box::new(slice.state.unwrap()));
        let hit_rate = k as f64 / 300.0;
        let (outcome, delta) = s.commit(id, end, Some(&report(k)), k as u64, hit_rate);
        assert!(outcome.is_none());
        assert_eq!(delta as usize, 2 * k - evals);
        evals = 2 * k;
    }

    let series = s.series();
    let names: Vec<&str> = series.iter().map(|(name, _)| name.as_str()).collect();
    assert_eq!(
        names,
        [
            "job-1.best_score",
            "job-1.budget_remaining",
            "job-1.cache_hit_rate",
            "job-1.epoch_us",
            "job-1.evals_per_sec",
        ]
    );
    for (name, points) in &series {
        let ticks: Vec<u64> = points.iter().map(|p| p.tick).collect();
        assert_eq!(ticks, (45..=300).collect::<Vec<u64>>(), "{name}");
    }
    let newest = |name: &str| {
        let (_, points) = series.iter().find(|(n, _)| n == name).unwrap();
        points.last().unwrap().value
    };
    assert_eq!(newest("job-1.epoch_us"), 300.0);
    assert_eq!(newest("job-1.best_score"), 0.8);
    assert_eq!(newest("job-1.evals_per_sec"), 8.0);
    assert_eq!(newest("job-1.budget_remaining"), 0.25);
    assert_eq!(newest("job-1.cache_hit_rate"), 1.0);

    let rows = s.rows();
    let row = &rows[0];
    assert_eq!(row.epochs_completed, 300);
    assert_eq!(row.base_score, 0.5);
    assert_eq!(row.best_score, 0.8);
    assert_eq!(row.downstream_evals, 600);
    assert_eq!(row.elapsed_secs, 75.0);
    assert_eq!(row.budget_remaining, 0.25);
}
