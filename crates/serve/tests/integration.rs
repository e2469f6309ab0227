//! End-to-end behaviour of the job server through its thread: lifecycle,
//! anytime budgets, progress streaming, checkpoint/resume, the status
//! endpoint, and the JSON-lines progress feed. Every assertion here holds
//! however fast a job runs; the exact boundaries (cancel, admission,
//! checkpoint shapes, resumed streams) are pinned on the scheduler core
//! itself (`src/scheduler/tests.rs`).

use serve::{Budget, JobEvent, JobId, JobServer, JobStatus, ServeError, ServerConfig};
use tabular::{DataFrame, SynthSpec, Task};

fn frame() -> DataFrame {
    SynthSpec::new("serve-it", 150, 4, Task::Classification)
        .with_seed(7)
        .generate()
        .unwrap()
}

fn fast_engine() -> eafe::Engine {
    let mut cfg = eafe::EafeConfig::fast();
    cfg.stage2_epochs = 3;
    cfg.steps_per_epoch = 3;
    eafe::Engine::nfs(cfg)
}

/// An engine that never finishes by itself: only a budget, a cancel or a
/// shutdown ends its job.
fn endless_engine() -> eafe::Engine {
    let mut cfg = eafe::EafeConfig::fast();
    cfg.stage2_epochs = 1_000_000;
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
        .submit("acme", &frame, endless_engine(), Budget::epochs(2))
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
fn checkpoint_all_on_a_busy_server_then_restart_preserves_every_job() {
    let frame = frame();
    let dir = scratch_dir("busy-ckpt");
    let config = ServerConfig {
        checkpoint_dir: Some(dir.clone()),
        ..ServerConfig::default()
    };
    let mut server = JobServer::new(config.clone()).unwrap();
    let jobs: Vec<serve::JobHandle> = ["acme", "globex"]
        .iter()
        .map(|tenant| {
            server
                .submit(tenant, &frame, endless_engine(), Budget::unlimited())
                .unwrap()
        })
        .collect();
    // Neither job ever finishes by itself, so the rotation never idles:
    // the snapshot still comes, at an epoch boundary, and holds both.
    assert!(matches!(jobs[0].next_event(), Some(JobEvent::Epoch(_))));
    assert_eq!(server.checkpoint_all().unwrap(), 2);
    for job in &jobs {
        assert!(dir.join(format!("{}.json", job.id())).exists());
    }
    assert_eq!(server.shutdown().unwrap(), 2);
    for job in &jobs {
        assert!(matches!(job.wait(), Err(ServeError::ServerStopped)));
    }

    let (_server2, handles) = JobServer::resume(config).unwrap();
    let ids = |hs: &[serve::JobHandle]| -> Vec<(JobId, String)> {
        hs.iter()
            .map(|h| (h.id(), h.tenant().to_string()))
            .collect()
    };
    assert_eq!(
        ids(&handles),
        ids(&jobs),
        "ids and tenants survive restarts"
    );
    for handle in &handles {
        handle.cancel().unwrap();
    }
    for handle in &handles {
        assert_eq!(handle.wait().unwrap().status, JobStatus::Cancelled);
        // The checkpoint file goes once its job reaches a terminal state.
        assert!(!dir.join(format!("{}.json", handle.id())).exists());
    }
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
