//! Release smoke tests for the serving layer: timing-sensitive checks on
//! live (unquiesced) behaviour — CI runs these under `--release` where a
//! slice is fast enough for the bounds to be meaningful.

use serve::{Budget, JobEvent, JobServer, JobStatus, ServerConfig};
use tabular::{DataFrame, SynthSpec, Task};

fn frame() -> DataFrame {
    SynthSpec::new("serve-smoke", 150, 4, Task::Classification)
        .with_seed(11)
        .generate()
        .unwrap()
}

/// Many cheap epochs: interruption lands mid-run, never near the end.
/// (Once the policy repeats itself an epoch is a handful of score-cache
/// hits — 10 000 of them had come to fit inside a one-second budget.)
fn long_engine(seed: u64) -> eafe::Engine {
    let mut cfg = eafe::EafeConfig::fast();
    cfg.stage2_epochs = 1_000_000;
    cfg.steps_per_epoch = 2;
    cfg.early_stop_patience = None;
    cfg.seed = seed;
    eafe::Engine::nfs(cfg)
}

#[test]
fn live_cancel_stops_within_one_epoch_boundary() {
    let frame = frame();
    let server = JobServer::new(ServerConfig::default()).unwrap();
    let job = server
        .submit("acme", &frame, long_engine(5), Budget::unlimited())
        .unwrap();

    // Let the job get going, then cancel while the scheduler is live: at
    // most the slice already in flight may still complete and report.
    // Every report sent before the cancel landed is on the stream once
    // `cancel` returns (however many a loaded host let pile up there), so
    // drain those first and count only what arrives after them.
    assert!(matches!(job.next_event(), Some(JobEvent::Epoch(_))));
    job.cancel().unwrap();
    job.progress();
    let mut epochs_after_cancel = 0;
    while let Some(event) = job.next_event() {
        if let JobEvent::Epoch(_) = event {
            epochs_after_cancel += 1;
        }
    }
    let outcome = job.wait().unwrap();
    assert_eq!(outcome.status, JobStatus::Cancelled);
    assert!(
        epochs_after_cancel <= 1,
        "cancel must stop the job within one epoch boundary \
         (saw {epochs_after_cancel} epochs after cancel)"
    );
    assert!(
        outcome.result.is_some(),
        "cancelled job keeps its best-so-far"
    );
}

#[test]
fn live_status_scrapes_during_a_two_tenant_run() {
    let frame = frame();
    let server = JobServer::new(ServerConfig {
        status_addr: Some("127.0.0.1:0".to_string()),
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.status_addr().unwrap();
    let a = server
        .submit("tenant-a", &frame, long_engine(31), Budget::secs(0.6))
        .unwrap();
    let b = server
        .submit("tenant-b", &frame, long_engine(32), Budget::secs(0.6))
        .unwrap();

    // Both tenants are mid-run: scrape live, repeatedly, and require the
    // pages to reflect both tenants with well-formed payloads. Metrics
    // are recorded after the slice's progress event is delivered (the
    // scheduler records outside its lock), so poll with a deadline
    // rather than asserting on the first scrape.
    assert!(matches!(a.next_event(), Some(JobEvent::Epoch(_))));
    assert!(matches!(b.next_event(), Some(JobEvent::Epoch(_))));
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    let metrics = loop {
        let metrics = serve::scrape(addr, "/metrics").unwrap();
        let complete = ["tenant-a", "tenant-b"].iter().all(|tenant| {
            metrics.contains(&format!("serve_epochs{{tenant=\"{tenant}\"}}"))
                && metrics.contains(&format!(
                    "serve_epoch_us{{tenant=\"{tenant}\",quantile=\"0.99\"}}"
                ))
        });
        if complete {
            break metrics;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "live /metrics never showed both tenants: {metrics}"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    };
    assert!(metrics.contains("# TYPE serve_epochs counter"), "{metrics}");
    for _ in 0..3 {
        let status = serve::scrape(addr, "/status").unwrap();
        let doc = serde_json::parse(&status).expect("live /status is valid JSON");
        let jobs = doc
            .as_map()
            .and_then(|m| m.iter().find(|(k, _)| k == "jobs").map(|(_, v)| v))
            .and_then(|v| v.as_array())
            .unwrap();
        assert_eq!(jobs.len(), 2, "both tenants visible: {status}");
    }

    let oa = a.wait().unwrap();
    let ob = b.wait().unwrap();
    assert_eq!(oa.status, JobStatus::BudgetExhausted);
    assert_eq!(ob.status, JobStatus::BudgetExhausted);

    // After the run: budget burn-down series exist per job and the final
    // budget_remaining point is (near) zero.
    let status = serve::scrape(addr, "/status").unwrap();
    let doc = serde_json::parse(&status).unwrap();
    let series = doc
        .as_map()
        .and_then(|m| m.iter().find(|(k, _)| k == "series").map(|(_, v)| v))
        .and_then(|v| v.as_map())
        .unwrap();
    for job in [a.id(), b.id()] {
        let name = format!("{job}.budget_remaining");
        let points = series
            .iter()
            .find(|(k, _)| *k == name)
            .and_then(|(_, v)| v.as_array())
            .unwrap_or_else(|| panic!("missing {name}"));
        let last = points.last().unwrap().as_map().unwrap();
        let value = last
            .iter()
            .find(|(k, _)| k == "value")
            .and_then(|(_, v)| v.as_f64())
            .unwrap();
        assert!(
            value < 0.5,
            "budget burn-down should approach zero, got {value}"
        );
    }
}

#[test]
fn equal_budget_tenants_finish_within_25_percent_of_each_other() {
    let frame = frame();
    let server = JobServer::new(ServerConfig::default()).unwrap();
    // Same dataset and config shape, different seeds, identical
    // compute-seconds budgets: fair round-robin slicing means neither
    // tenant can starve the other, so their epoch counts track closely.
    let budget = Budget::secs(1.0);
    let a = server
        .submit("tenant-a", &frame, long_engine(21), budget)
        .unwrap();
    let b = server
        .submit("tenant-b", &frame, long_engine(22), budget)
        .unwrap();
    let oa = a.wait().unwrap();
    let ob = b.wait().unwrap();
    assert_eq!(oa.status, JobStatus::BudgetExhausted);
    assert_eq!(ob.status, JobStatus::BudgetExhausted);

    let (hi, lo) = (oa.epochs.max(ob.epochs), oa.epochs.min(ob.epochs));
    assert!(lo > 0, "both tenants made progress");
    assert!(
        (hi - lo) as f64 <= 0.25 * hi as f64,
        "equal-budget tenants diverged: {} vs {} epochs",
        oa.epochs,
        ob.epochs
    );
}
