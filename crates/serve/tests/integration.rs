//! End-to-end behaviour of the job server: lifecycle, anytime budgets,
//! admission control, progress streaming, checkpoint/resume, and the
//! JSON-lines progress feed.

use serve::{Budget, JobEvent, JobId, JobServer, JobStatus, ServeError, ServerConfig};
use tabular::{DataFrame, SynthSpec, Task};

fn frame() -> DataFrame {
    seeded_frame(7)
}

/// The test table under a seed of the caller's: a table no other test of
/// this binary searches. The CV-score memo (`learners::cv`) is
/// process-wide, so on the shared [`frame`] a job can find every forest
/// already trained by a sibling test and run all its epochs in
/// microseconds; the tests that must catch a job between its first event
/// and the end of its budget give it forests of its own to train.
fn seeded_frame(seed: u64) -> DataFrame {
    SynthSpec::new("serve-it", 150, 4, Task::Classification)
        .with_seed(seed)
        .generate()
        .unwrap()
}

fn fast_engine() -> eafe::Engine {
    let mut cfg = eafe::EafeConfig::fast();
    cfg.stage2_epochs = 3;
    cfg.steps_per_epoch = 3;
    eafe::Engine::nfs(cfg)
}

/// An engine with enough epochs that tests can reliably interrupt it.
fn long_engine() -> eafe::Engine {
    let mut cfg = eafe::EafeConfig::fast();
    cfg.stage2_epochs = 200;
    cfg.steps_per_epoch = 2;
    cfg.early_stop_patience = None; // never early-stop
    eafe::Engine::nfs(cfg)
}

fn scratch_dir(test: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("serve-it-{}-{test}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn completed_job_delivers_result_and_engineered_frame() {
    let frame = frame();
    let server = JobServer::new(ServerConfig::default()).unwrap();
    let job = server
        .submit("acme", &frame, fast_engine(), Budget::unlimited())
        .unwrap();
    let outcome = job.wait().unwrap();

    assert_eq!(outcome.status, JobStatus::Completed);
    assert_eq!(outcome.tenant, "acme");
    assert_eq!(server.status(job.id()).unwrap(), JobStatus::Completed);
    assert!(outcome.epochs > 0);
    let result = outcome.result.expect("completed job has a result");
    assert!(result.best_score >= result.base_score);
    let engineered = outcome.engineered.expect("completed job has a frame");
    assert_eq!(
        engineered.n_cols(),
        frame.n_cols() + result.selected.len(),
        "engineered frame = original features + selected features"
    );
}

#[test]
fn budget_exhausted_job_still_yields_best_so_far() {
    let frame = frame();
    let server = JobServer::new(ServerConfig::default()).unwrap();
    let job = server
        .submit("acme", &frame, long_engine(), Budget::epochs(2))
        .unwrap();
    let outcome = job.wait().unwrap();

    assert_eq!(outcome.status, JobStatus::BudgetExhausted);
    assert_eq!(outcome.epochs, 2, "stops exactly at the epoch budget");
    let result = outcome
        .result
        .expect("anytime: exhausted jobs keep their best");
    assert!(result.best_score >= result.base_score);
    assert!(outcome.engineered.is_some());
}

#[test]
fn progress_stream_is_monotone_and_ends_with_done() {
    let frame = frame();
    let server = JobServer::new(ServerConfig::default()).unwrap();
    let job = server
        .submit("acme", &frame, fast_engine(), Budget::unlimited())
        .unwrap();

    let mut reports = Vec::new();
    let outcome = loop {
        match job.next_event().expect("stream ends with Done") {
            JobEvent::Epoch(r) => reports.push(r),
            JobEvent::Done(o) => break o,
        }
    };
    assert!(
        job.next_event().is_none(),
        "nothing after the terminal event"
    );

    assert!(!reports.is_empty());
    for pair in reports.windows(2) {
        assert!(
            pair[1].best_score >= pair[0].best_score,
            "best-so-far can only improve"
        );
        assert_eq!(
            pair[1].epochs_completed,
            pair[0].epochs_completed + 1,
            "one report per slice"
        );
    }
    let last = reports.last().unwrap();
    assert!(last.done);
    let result = outcome.result.as_ref().unwrap();
    assert_eq!(last.best_score.to_bits(), result.best_score.to_bits());
    // The final report's weighted feature set is exactly the run's
    // selected set.
    let mut names: Vec<&str> = last.best_features.iter().map(|f| f.name.as_str()).collect();
    names.sort_unstable();
    let mut selected: Vec<&str> = result.selected.iter().map(String::as_str).collect();
    selected.sort_unstable();
    assert_eq!(names, selected);
}

#[test]
fn cancelled_job_stops_at_the_next_epoch_boundary() {
    let frame = seeded_frame(101);
    let server = JobServer::new(ServerConfig::default()).unwrap();
    let job = server
        .submit("acme", &frame, long_engine(), Budget::unlimited())
        .unwrap();

    // Quiesce the scheduler so the cancellation point is exact: after
    // `pause` returns, no slice is in flight, so the epochs observed on
    // the stream are all the epochs that ever ran.
    assert!(matches!(job.next_event(), Some(JobEvent::Epoch(_))));
    server.pause();
    let epochs_before_cancel = 1 + job.progress().len();
    job.cancel().unwrap();
    server.unpause();

    let outcome = job.wait().unwrap();
    assert_eq!(outcome.status, JobStatus::Cancelled);
    assert_eq!(
        outcome.epochs, epochs_before_cancel,
        "no further slice runs after a cancel at a quiesced boundary"
    );
    assert!(
        outcome.result.is_some(),
        "anytime: cancelled jobs keep their best"
    );
}

#[test]
fn admission_control_bounds_the_queue() {
    let frame = frame();
    let config = ServerConfig {
        max_queued: 2,
        ..ServerConfig::default()
    };
    let server = JobServer::new(config).unwrap();
    // Park the scheduler so nothing is promoted out of the queue.
    server.pause();
    let _a = server
        .submit("t", &frame, fast_engine(), Budget::unlimited())
        .unwrap();
    let _b = server
        .submit("t", &frame, fast_engine(), Budget::unlimited())
        .unwrap();
    let err = server
        .submit("t", &frame, fast_engine(), Budget::unlimited())
        .unwrap_err();
    assert!(
        matches!(err, ServeError::QueueFull { capacity: 2 }),
        "expected QueueFull, got {err}"
    );
    server.unpause();
}

#[test]
fn unknown_job_and_stopped_server_are_rejected() {
    let frame = frame();
    let mut server = JobServer::new(ServerConfig::default()).unwrap();
    assert!(matches!(
        server.status(JobId(999)),
        Err(ServeError::UnknownJob(JobId(999)))
    ));
    server.shutdown().unwrap();
    assert!(matches!(
        server.submit("t", &frame, fast_engine(), Budget::unlimited()),
        Err(ServeError::ServerStopped)
    ));
}

#[test]
fn checkpoint_all_then_restart_preserves_job_ids_and_results() {
    let frame = frame();
    let solo = fast_engine().run(&frame).unwrap();

    let dir = scratch_dir("ckpt");
    let config = ServerConfig {
        checkpoint_dir: Some(dir.clone()),
        ..ServerConfig::default()
    };
    // Park the scheduler before submitting so the checkpoint captures a
    // job that never ran a slice (the frame-only checkpoint shape).
    let mut server = JobServer::new(config.clone()).unwrap();
    server.pause();
    let job = server
        .submit("acme", &frame, fast_engine(), Budget::unlimited())
        .unwrap();
    let original_id = job.id();
    assert_eq!(server.checkpoint_all().unwrap(), 1);
    server.shutdown().unwrap();

    let (_server2, handles) = JobServer::resume(config).unwrap();
    assert_eq!(handles.len(), 1);
    assert_eq!(handles[0].id(), original_id, "job ids survive restarts");
    assert_eq!(handles[0].tenant(), "acme");
    let outcome = handles[0].wait().unwrap();
    assert_eq!(outcome.status, JobStatus::Completed);
    let result = outcome.result.unwrap();
    assert_eq!(
        result.best_score.to_bits(),
        solo.best_score.to_bits(),
        "a frame round-tripped through a checkpoint yields identical scores"
    );
    // The checkpoint file is removed once the job reaches a terminal state.
    assert!(!dir.join(format!("{original_id}.json")).exists());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resumed_stream_does_not_replay_events_seen_before_restart() {
    let frame = seeded_frame(102);
    let dir = scratch_dir("resume-stream");
    let feed_dir = dir.join("feeds");
    let config = ServerConfig {
        checkpoint_dir: Some(dir.clone()),
        feed_dir: Some(feed_dir.clone()),
        ..ServerConfig::default()
    };

    let mut server = JobServer::new(config.clone()).unwrap();
    let job = server
        .submit("acme", &frame, long_engine(), Budget::epochs(6))
        .unwrap();

    // Observe at least one epoch live, then quiesce so the count of
    // pre-restart epochs is exact.
    assert!(matches!(job.next_event(), Some(JobEvent::Epoch(_))));
    server.pause();
    let seen_before = 1 + job.progress().len();
    assert!(seen_before < 6, "budget must not be exhausted pre-restart");
    // Shut down while still paused: the checkpoint then captures exactly
    // the quiesced state whose epochs the stream has already delivered.
    assert_eq!(server.shutdown().unwrap(), 1);

    let (_server2, handles) = JobServer::resume(config).unwrap();
    let resumed = &handles[0];
    let mut reports = Vec::new();
    let outcome = loop {
        match resumed.next_event().expect("stream ends with Done") {
            JobEvent::Epoch(r) => reports.push(r),
            JobEvent::Done(o) => break o,
        }
    };

    // Ordering contract: the resumed stream starts exactly one epoch
    // after the last pre-restart report — nothing seen before the
    // restart is re-emitted — and stays gapless through the terminal
    // event.
    assert_eq!(
        reports.first().unwrap().epochs_completed,
        seen_before + 1,
        "first resumed event must continue, not replay"
    );
    for pair in reports.windows(2) {
        assert_eq!(pair[1].epochs_completed, pair[0].epochs_completed + 1);
    }
    assert_eq!(outcome.status, JobStatus::BudgetExhausted);
    assert_eq!(outcome.epochs, 6);
    assert_eq!(reports.last().unwrap().epochs_completed, 6);

    // The progress feed is truncated on resume, so it too contains only
    // post-restart epochs.
    let text = std::fs::read_to_string(feed_dir.join(format!("{}.jsonl", resumed.id()))).unwrap();
    let feed_epochs: Vec<usize> = text
        .lines()
        .filter_map(|l| telemetry::Event::from_json(l).ok())
        .filter_map(|e| match e {
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
        (seen_before + 1..=6).collect::<Vec<_>>(),
        "feed holds exactly the post-restart epochs, no replays"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn status_endpoint_reports_jobs_metrics_and_cache() {
    let frame = frame();
    let server = JobServer::new(ServerConfig {
        status_addr: Some("127.0.0.1:0".to_string()),
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.status_addr().expect("status server is running");

    let job = server
        .submit("acme", &frame, fast_engine(), Budget::unlimited())
        .unwrap();
    let outcome = job.wait().unwrap();
    assert_eq!(outcome.status, JobStatus::Completed);

    // /metrics: Prometheus text with the tenant label on scoped metrics.
    let metrics = serve::scrape(addr, "/metrics").unwrap();
    assert!(
        metrics.contains("# TYPE serve_epoch_us summary"),
        "{metrics}"
    );
    assert!(metrics.contains("serve_epoch_us{tenant=\"acme\",quantile=\"0.99\"}"));
    assert!(metrics.contains("serve_epochs{tenant=\"acme\"}"));
    assert!(metrics.contains("serve_admission_wait_us{tenant=\"acme\""));

    // /status: JSON with the job row, pool + cache stats, time series.
    let status = serve::scrape(addr, "/status").unwrap();
    let doc = serde_json::parse(&status).unwrap();
    let map = doc.as_map().unwrap();
    let jobs = map
        .iter()
        .find(|(k, _)| k == "jobs")
        .and_then(|(_, v)| v.as_array())
        .unwrap();
    assert_eq!(jobs.len(), 1);
    let row = jobs[0].as_map().unwrap();
    let field = |k: &str| row.iter().find(|(n, _)| n == k).map(|(_, v)| v).unwrap();
    assert_eq!(field("tenant"), &serde::Value::Str("acme".to_string()));
    assert_eq!(field("status"), &serde::Value::Str("Completed".to_string()));
    assert!(field("epochs_completed").as_u64().unwrap() > 0);
    assert!(field("best_score").as_f64().unwrap() >= field("base_score").as_f64().unwrap());
    for key in ["queue_depth", "active", "pool", "cache", "dist", "series"] {
        assert!(map.iter().any(|(k, _)| k == key), "missing {key}: {status}");
    }
    // Distributed-search counters surface on both pages (all zero here —
    // no coordinator ran in this process — but the keys must exist).
    assert!(metrics.contains("# TYPE dist_shards_completed counter"));
    assert!(metrics.contains("# TYPE dist_workers_live gauge"));
    let dist = map
        .iter()
        .find(|(k, _)| k == "dist")
        .and_then(|(_, v)| v.as_map())
        .unwrap();
    for key in ["shards_completed", "bytes_sent", "wire_us"] {
        assert!(dist.iter().any(|(k, _)| k == key), "missing dist.{key}");
    }
    // The per-job time series carry the budget burn-down and best score.
    let series = map
        .iter()
        .find(|(k, _)| k == "series")
        .and_then(|(_, v)| v.as_map())
        .unwrap();
    let id = job.id();
    for signal in [
        "best_score",
        "budget_remaining",
        "cache_hit_rate",
        "epoch_us",
    ] {
        let name = format!("{id}.{signal}");
        let points = series
            .iter()
            .find(|(k, _)| *k == name)
            .and_then(|(_, v)| v.as_array())
            .unwrap_or_else(|| panic!("missing series {name}"));
        assert!(!points.is_empty());
    }
}

#[test]
fn checkpoint_with_fewer_policies_than_subgroups_is_corrupt_not_a_panic() {
    use serde::Value;

    let dir = scratch_dir("truncated-policies");
    let config = ServerConfig {
        checkpoint_dir: Some(dir.clone()),
        ..ServerConfig::default()
    };
    let mut server = JobServer::new(config.clone()).unwrap();
    let frame = seeded_frame(103);
    let job = server
        .submit("acme", &frame, long_engine(), Budget::epochs(6))
        .unwrap();
    // A started job: the checkpoint carries a search state, not a frame.
    assert!(matches!(job.next_event(), Some(JobEvent::Epoch(_))));
    server.pause();
    assert_eq!(server.shutdown().unwrap(), 1);

    // Drop the last agent's policy from the real checkpoint's JSON.
    let path = dir.join(format!("{}.json", job.id()));
    let mut cp = serde_json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
    fn entry<'a>(v: &'a mut Value, key: &str) -> &'a mut Value {
        match v {
            Value::Map(entries) => entries
                .iter_mut()
                .find_map(|(k, v)| (k == key).then_some(v))
                .unwrap_or_else(|| panic!("checkpoint has no `{key}`")),
            other => panic!("expected a map around `{key}`, found {other:?}"),
        }
    }
    match entry(entry(&mut cp, "state"), "policies") {
        Value::Array(policies) => {
            assert_eq!(policies.len(), frame.n_cols());
            policies.pop();
        }
        other => panic!("policies is not an array: {other:?}"),
    }
    std::fs::write(&path, serde_json::to_string(&cp).unwrap()).unwrap();

    match JobServer::resume(config) {
        Err(ServeError::Corrupt(msg)) => assert!(msg.contains("policies"), "{msg}"),
        Err(other) => panic!("expected ServeError::Corrupt, got {other}"),
        Ok(_) => panic!("a truncated checkpoint must not be re-admitted"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Write a checkpoint of a job that has not started (the scheduler is
/// parked, so there is no race to win), swap `from` for `to` in its JSON
/// text, and try to resume from it.
fn resume_edited_checkpoint(
    test: &str,
    frame: &DataFrame,
    edits: &[(&str, &str)],
) -> serve::Result<(JobServer, Vec<serve::JobHandle>)> {
    let dir = scratch_dir(test);
    let config = ServerConfig {
        checkpoint_dir: Some(dir.clone()),
        ..ServerConfig::default()
    };
    let mut server = JobServer::new(config.clone()).unwrap();
    server.pause();
    let job = server
        .submit("acme", frame, fast_engine(), Budget::unlimited())
        .unwrap();
    assert_eq!(server.checkpoint_all().unwrap(), 1);
    server.shutdown().unwrap();

    let path = dir.join(format!("{}.json", job.id()));
    let mut text = std::fs::read_to_string(&path).unwrap();
    for (from, to) in edits {
        assert!(text.contains(from), "the checkpoint carries {from}");
        text = text.replace(from, to);
    }
    std::fs::write(&path, text).unwrap();
    let resumed = JobServer::resume(config);
    if resumed.is_err() {
        let _ = std::fs::remove_dir_all(&dir);
    }
    resumed
}

#[test]
fn checkpoint_with_a_retired_config_key_resumes_bit_identical() {
    // Checkpoints written before the per-sample NN trainer left the
    // library carry `"backend":"Batched"` in the evaluator's MLP config;
    // older ones also carry the engine's `signature_dim` / `hash_family`
    // (the FPE model's compressor holds its own `d` and family) and the
    // forest's `n_threads` (the process budget is the one thread knob).
    // The keys are ignored — none could change a result — and the version
    // is not bumped.
    let frame = frame();
    let solo = fast_engine().run(&frame).unwrap();
    let edits = [
        (r#""mlp":{"#, r#""mlp":{"backend":"Batched","#),
        (
            r#""replay_capacity":"#,
            r#""signature_dim":16,"hash_family":"Ccws","replay_capacity":"#,
        ),
        (r#""forest":{"#, r#""forest":{"n_threads":0,"#),
    ];
    let (_server, handles) = resume_edited_checkpoint("retired-key", &frame, &edits).unwrap();
    let result = handles[0].wait().unwrap().result.unwrap();
    assert_eq!(result.best_score.to_bits(), solo.best_score.to_bits());
    assert_eq!(result.selected, solo.selected);
}

#[test]
fn checkpoint_naming_the_deleted_split_finder_is_corrupt_not_a_silent_switch() {
    // Exact and histogram trees differ on continuous data: a checkpoint
    // that asks for the exact finder must be refused, in `resume` (not by
    // a panic on the scheduler thread), naming what it asked for.
    let edit = (r#""split":"Histogram""#, r#""split":"Exact""#);
    match resume_edited_checkpoint("exact-split", &frame(), &[edit]) {
        Err(ServeError::Corrupt(msg)) => {
            assert!(msg.contains("unknown variant `Exact`"), "{msg}")
        }
        Err(other) => panic!("expected ServeError::Corrupt, got {other}"),
        Ok(_) => panic!("a checkpoint naming a deleted split finder must not be re-admitted"),
    }
}

#[test]
fn resume_without_a_checkpoint_dir_is_an_error() {
    assert!(matches!(
        JobServer::resume(ServerConfig::default()),
        Err(ServeError::NoCheckpointDir)
    ));
}

#[test]
fn progress_feed_is_valid_event_jsonl() {
    let frame = frame();
    let dir = scratch_dir("feed");
    let server = JobServer::new(ServerConfig {
        feed_dir: Some(dir.clone()),
        ..ServerConfig::default()
    })
    .unwrap();
    let job = server
        .submit("acme", &frame, fast_engine(), Budget::unlimited())
        .unwrap();
    let outcome = job.wait().unwrap();
    assert_eq!(outcome.status, JobStatus::Completed);

    let text = std::fs::read_to_string(dir.join(format!("{}.jsonl", job.id()))).unwrap();
    let events: Vec<telemetry::Event> = text
        .lines()
        .map(|l| telemetry::Event::from_json(l).expect("feed lines are Event JSON"))
        .collect();
    let epochs = events
        .iter()
        .filter_map(telemetry::Event::as_span)
        .filter(|s| s.name == "serve.epoch")
        .count();
    assert_eq!(epochs, outcome.epochs, "one feed span per epoch");
    // Every epoch span tags its job, and the stream ends with a terminal
    // count event naming the outcome.
    for span in events.iter().filter_map(telemetry::Event::as_span) {
        let jobfield = span.fields.iter().find(|(k, _)| k == "job").unwrap();
        assert_eq!(jobfield.1, job.id().0 as f64);
    }
    match events.last().unwrap() {
        telemetry::Event::Count(c) => {
            assert_eq!(c.name, "serve.done.Completed");
            assert_eq!(c.value, outcome.epochs as u64);
        }
        other => panic!("expected terminal count event, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}
