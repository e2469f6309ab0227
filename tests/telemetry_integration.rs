//! Telemetry across the runtime boundary: spans opened inside
//! `WorkerPool` workers must parent to the span that submitted the work,
//! events from every worker thread must reach the installed sink, and the
//! JSON-lines wire format must round-trip what the sink saw.
//!
//! The sink slot is process-global, so every test that installs one takes
//! the [`sink_lock`] mutex first; tests in this binary otherwise run
//! concurrently and would cross-pollute each other's collectors.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use runtime::WorkerPool;
use telemetry::{Event, MemorySink, Summary};

fn sink_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

/// Install a fresh collector for the duration of one closure, returning
/// the events it captured.
fn with_collector<R>(body: impl FnOnce() -> R) -> (R, Vec<Event>) {
    let _guard = sink_lock().lock().unwrap();
    let sink = Arc::new(MemorySink::new());
    telemetry::install(Arc::clone(&sink) as Arc<dyn telemetry::Sink>);
    let out = body();
    telemetry::uninstall();
    (out, sink.take())
}

#[test]
fn pool_task_spans_parent_to_the_submitting_span() {
    let pool = WorkerPool::new().with_threads(4);
    let ((), events) = with_collector(|| {
        let outer = telemetry::span("test.submit");
        let results = pool.map((0..16).collect::<Vec<i64>>(), |_, i| {
            let mut s = telemetry::span("test.unit");
            s.field("i", i as f64);
            i * 2
        });
        assert_eq!(results, (0..16).map(|i| i * 2).collect::<Vec<i64>>());
        drop(outer);
    });
    let spans: Vec<_> = events.iter().filter_map(Event::as_span).collect();
    let submit = spans
        .iter()
        .find(|s| s.name == "test.submit")
        .expect("submitting span recorded");
    let map_span = spans
        .iter()
        .find(|s| s.name == "pool.map")
        .expect("pool.map span recorded");
    assert_eq!(
        map_span.parent, submit.id,
        "pool.map must nest under the caller's span"
    );
    // Every worker-side task span must chain back to the submitting span
    // even though it ran on another thread: unit -> task -> map -> submit.
    let units: Vec<_> = spans.iter().filter(|s| s.name == "test.unit").collect();
    assert_eq!(units.len(), 16, "one unit span per item");
    for unit in &units {
        let task = spans
            .iter()
            .find(|s| s.id == unit.parent && s.name == "pool.task")
            .expect("unit nests under a pool.task span");
        assert_eq!(
            task.parent, map_span.id,
            "pool.task must parent to pool.map across the thread boundary"
        );
    }
    // Aggregation sees the same tree: all rows present, exact counts.
    let summary = Summary::from_events(&events);
    assert_eq!(summary.row("pool.task").unwrap().count, 16);
    assert_eq!(summary.row("test.unit").unwrap().count, 16);
    assert_eq!(summary.row("pool.map").unwrap().count, 1);
}

#[test]
fn every_worker_event_reaches_the_sink() {
    let pool = WorkerPool::new().with_threads(8);
    let ((), events) = with_collector(|| {
        pool.map((0..200usize).collect::<Vec<_>>(), |_, i| {
            telemetry::count("test.worker_units", 1);
            let _s = telemetry::span("test.busy");
            i
        });
    });
    let busy = events
        .iter()
        .filter_map(Event::as_span)
        .filter(|s| s.name == "test.busy")
        .count();
    assert_eq!(busy, 200, "no span dropped under contention");
    assert_eq!(
        telemetry::global().counter("test.worker_units").get(),
        200,
        "counter increments are exact"
    );
    telemetry::global().clear();
}

#[test]
fn captured_events_round_trip_through_json_lines() {
    let pool = WorkerPool::new().with_threads(4);
    let ((), events) = with_collector(|| {
        pool.map((0..8i64).collect::<Vec<_>>(), |_, i| {
            let mut s = telemetry::span("test.rt");
            s.field("i", i as f64);
        });
    });
    assert!(!events.is_empty());
    let wire: String = events.iter().map(|e| e.to_json() + "\n").collect();
    let parsed: Vec<Event> = wire
        .lines()
        .map(|l| Event::from_json(l).expect("every line parses"))
        .collect();
    assert_eq!(parsed, events, "wire format is lossless");
}

#[test]
fn disabled_telemetry_records_nothing_from_pool_runs() {
    let _guard = sink_lock().lock().unwrap();
    assert!(!telemetry::enabled());
    let pool = WorkerPool::new().with_threads(4);
    let before = telemetry::global().counter("test.disabled_units").get();
    pool.map((0..32usize).collect::<Vec<_>>(), |_, i| {
        telemetry::count("test.disabled_units", 1);
        let _s = telemetry::span("test.disabled");
        i
    });
    assert_eq!(
        telemetry::global().counter("test.disabled_units").get(),
        before,
        "count() is a no-op while disabled"
    );
}

/// Each proposal counts its operator once. A distributed coordinator
/// replays the next slice's proposals (`speculate_fpe_columns`,
/// `speculate_evals`) before stepping it, and a checkpoint restore and
/// the seeding slice make features again from their lineages; none of
/// these is a proposal, so Σ `ops.generated.*` over an E-AFE search
/// stepped that way equals its `generated_features`. Each decision the
/// search makes is one `search.candidate` span: the proposals (one per
/// counted operator) and the seeded replays (the spans without `earned`),
/// and no replay or restore. Every evaluation but the base one lies
/// inside a candidate's span, whose `score` field it sets, and the
/// accepted spans are the selected features.
#[test]
fn each_proposal_counts_its_operator_once() {
    let cfg = eafe::EafeConfig::fast();
    let space = eafe::FpeSearchSpace {
        families: vec![minhash::HashFamily::Ccws],
        dims: vec![16],
        thre: 0.0,
        seed: 1,
    };
    let ((counted, result), events) = with_collector(|| {
        // Pre-training runs pool maps too: under the sink lock, so that
        // their task spans cannot reach another test's collector.
        let fpe = eafe::bootstrap_fpe(3, 1, &space, &cfg.evaluator, 7).unwrap();
        let engine = eafe::Engine::e_afe(cfg, fpe);
        let frame = tabular::SynthSpec::new("op-counts", 150, 5, tabular::Task::Classification)
            .with_seed(5)
            .generate()
            .unwrap();
        let before = telemetry::global().snapshot();
        let mut search = engine.start(&frame).unwrap();
        while !search.is_done() {
            engine.speculate_fpe_columns(&search).unwrap();
            engine.speculate_evals(&search).unwrap();
            engine.step(&mut search).unwrap();
            // Resumed at every slice boundary: after stage 1 the replay
            // buffer is full, after the seeding slice features are accepted.
            let json = serde_json::to_string(&search).unwrap();
            search = serde_json::from_str(&json).unwrap();
        }
        let after = telemetry::global().snapshot();
        let counted: Vec<u64> = OP_COUNTERS
            .iter()
            .map(|name| after.counter(name) - before.counter(name))
            .collect();
        (counted, engine.finish(&search).unwrap().0)
    });
    assert!(result.generated_features > 0);
    assert_eq!(
        counted.iter().sum::<u64>(),
        result.generated_features as u64
    );

    let spans: HashMap<u64, &telemetry::SpanEvent> = events
        .iter()
        .filter_map(Event::as_span)
        .map(|s| (s.id, s))
        .collect();
    let field = |s: &telemetry::SpanEvent, key: &str| {
        s.fields.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
    };
    let named = |name: &'static str| spans.values().copied().filter(move |s| s.name == name);
    let candidates: Vec<_> = named("search.candidate").collect();
    let with = |key: &str, value: Option<f64>| {
        let matching = candidates.iter().filter(|s| field(s, key) == value);
        matching.count()
    };
    let seeded = with("earned", None);
    assert!(seeded > 0, "the seeding slice replays stage-1 positives");
    // A proposal's stage is its epoch span's; a seeded replay has none.
    for s in &candidates {
        let epoch = spans.get(&s.parent).map(|p| p.name.as_str());
        let proposed = matches!(epoch, Some("engine.stage1_epoch" | "engine.stage2_epoch"));
        assert_eq!(proposed, field(s, "earned").is_some());
    }
    assert_eq!(candidates.len() - seeded, result.generated_features);
    let per_op: Vec<u64> = (0..OP_COUNTERS.len())
        .map(|op| {
            let proposed = candidates.iter().filter(|s| field(s, "earned").is_some());
            let of_op = proposed.filter(|s| field(s, "op") == Some(op as f64));
            of_op.count() as u64
        })
        .collect();
    assert_eq!(per_op, counted, "one span per counted operator");
    let scored = candidates.len() - with("score", None);
    assert_eq!(scored, result.downstream_evals - 1);
    assert_eq!(with("accepted", Some(1.0)), result.selected.len());
    let in_candidate = |mut id: u64| loop {
        match spans.get(&id) {
            Some(s) if s.name == "search.candidate" => return true,
            Some(s) => id = s.parent,
            None => return false,
        }
    };
    let outside = named("engine.evaluate").filter(|s| !in_candidate(s.parent));
    assert_eq!(
        outside.count(),
        1,
        "only the base evaluation is no candidate's"
    );
}

/// The `ops.generated.*` counters in `eafe::Operator::ALL` order, which
/// is the order of a `search.candidate` span's `op` field.
const OP_COUNTERS: [&str; 9] = [
    "ops.generated.log",
    "ops.generated.norm",
    "ops.generated.sqrt",
    "ops.generated.recip",
    "ops.generated.add",
    "ops.generated.sub",
    "ops.generated.mul",
    "ops.generated.div",
    "ops.generated.mod",
];
