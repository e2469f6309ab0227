//! The five workloads, as they run inside one fresh child process: load
//! the generated inputs, time one search through the program's public
//! entry points under benchmark-owned spans, fingerprint the result and
//! check it against an independent path where the program offers one.

use crate::inputs;
use crate::spans::{Recorder, SpanId};
use crate::spec::{Sizes, THREADS};
use crate::sys::usage_self;
use eafe::{Engine, EpochReport, FpeModel, RunResult, SearchStage};
use std::io::Read;
use std::path::{Path, PathBuf};
use std::time::Instant;
use tabular::{ChunkedFrame, DataFrame, Task};

/// What one child is asked to run.
pub struct Job<'a> {
    pub workload: &'a str,
    pub sizes: Sizes,
    /// Seed of this search (already derived from the run seed and member).
    pub seed: u64,
    pub member: usize,
    pub dir: &'a Path,
}

/// What one search produced and cost.
#[derive(Debug, Default)]
pub struct Measured {
    pub fingerprint: u64,
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Peak RSS at the end of the timed region, before any reference run
    /// (`dist_2w`: coordinator + both workers summed).
    pub peak_rss_mib: f64,
    pub time_to_target_s: f64,
    pub downstream_evals: u64,
    /// Downstream evaluations actually computed (score-cache misses): the
    /// unit of work the end-to-end rates are taken over.
    pub computed_evals: u64,
    /// Per-layer numbers this search can report, by metric name.
    pub layer: Vec<(String, f64)>,
    pub step_ms: Vec<f64>,
    pub report_gap_ms: Vec<f64>,
}

type Outcome<T> = Result<T, String>;

fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

// ---------------------------------------------------------------------------
// Result fingerprint
// ---------------------------------------------------------------------------

/// 64-bit FNV-1a, fed whole words.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(mut self, bytes: &[u8]) -> Self {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub fn word(self, w: u64) -> Self {
        self.bytes(&w.to_le_bytes())
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Fingerprint of a search result: every score bit, count and accepted
/// feature name, plus a digest of the engineered table's content.
pub fn fingerprint_result(r: &RunResult, table_digest: u128) -> u64 {
    let mut h = Fnv::new()
        .word(r.best_score.to_bits())
        .word(r.base_score.to_bits())
        .word(r.downstream_evals as u64)
        .word(r.generated_features as u64);
    for name in &r.selected {
        h = h.bytes(name.as_bytes()).word(0xff);
    }
    for p in &r.trace {
        h = h.word(p.score.to_bits());
    }
    h.word(table_digest as u64)
        .word((table_digest >> 64) as u64)
        .finish()
}

/// Content digest of a chunked table without materialising it: every
/// column's value bits folded chunk by chunk.
fn chunked_digest(frame: &ChunkedFrame) -> Outcome<u128> {
    let mut h = Fnv::new();
    for col in 0..frame.n_cols() {
        h = frame
            .fold_column(col, h.word(col as u64), |h, v| h.word(v.to_bits()))
            .map_err(err("fold engineered column"))?;
    }
    Ok(u128::from(h.finish()))
}

/// Invariants every search result must satisfy whatever the seed.
fn check_result(r: &RunResult) -> Outcome<()> {
    if !(r.base_score.is_finite() && r.best_score.is_finite()) {
        return Err(format!(
            "non-finite score: base {} best {}",
            r.base_score, r.best_score
        ));
    }
    if r.best_score < r.base_score {
        return Err(format!("best {} below base {}", r.best_score, r.base_score));
    }
    if r.downstream_evals == 0 || r.trace.is_empty() {
        return Err("search reported no evaluation".into());
    }
    if r.trace.windows(2).any(|w| w[1].score < w[0].score) {
        return Err("best-so-far trace is not monotone".into());
    }
    Ok(())
}

/// First moment the caller held `base + 0.9·(final − base)`.
fn time_to_target(reports: &[(f64, f64)], base: f64, best: f64) -> f64 {
    let target = base + 0.9 * (best - base);
    reports
        .iter()
        .find(|(_, score)| *score >= target)
        .or(reports.last())
        .map_or(0.0, |(t, _)| *t)
}

fn stage_span(stage: SearchStage) -> &'static str {
    match stage {
        SearchStage::Stage1 => "eafe.stage1",
        SearchStage::Seed => "eafe.seed",
        SearchStage::Stage2 => "eafe.stage2",
    }
}

/// Layer numbers every search shares, read off its `RunResult`.
fn result_layers(out: &mut Vec<(String, f64)>, r: &RunResult) {
    let mut put = |k: &str, v: f64| out.push((k.to_string(), v));
    put("eafe.generated", r.generated_features as f64);
    put("eafe.downstream_evals", r.downstream_evals as f64);
    put(
        "eafe.gate_pass_frac",
        r.downstream_evals as f64 / (r.generated_features.max(1)) as f64,
    );
    put("eafe.generation_s", r.generation_secs);
    put("eafe.eval_s", r.eval_secs);
    put("runtime.cache_hits", r.cache_hits as f64);
    put("runtime.cache_misses", r.cache_misses as f64);
    put("runtime.cache_hit_frac", r.cache_hit_rate());
}

/// Span totals of the stepped driver, by layer metric name.
fn span_layers(out: &mut Vec<(String, f64)>, rec: &Recorder) {
    for (metric, span) in [
        ("tabular.csv_read_s", "tabular.csv_read"),
        ("tabular.csv_write_s", "tabular.csv_write"),
        ("eafe.preselect_s", "eafe.preselect"),
        ("eafe.start_s", "eafe.start"),
        ("eafe.stage1_s", "eafe.stage1"),
        ("eafe.seed_s", "eafe.seed"),
        ("eafe.stage2_s", "eafe.stage2"),
        ("eafe.finish_s", "eafe.finish"),
    ] {
        out.push((metric.to_string(), rec.total_secs(span)));
    }
}

fn read_table(job: &Job, rec: &mut Recorder) -> Outcome<DataFrame> {
    let csv =
        std::fs::read(inputs::csv_path(job.dir, job.member)).map_err(err("read input CSV"))?;
    parse_table(job.workload, &csv, rec)
}

fn parse_table(name: &str, csv: &[u8], rec: &mut Recorder) -> Outcome<DataFrame> {
    let span = rec.enter("tabular.csv_read");
    let frame = tabular::csv::read_csv(name, Task::Classification, csv).map_err(err("parse CSV"));
    rec.exit(span);
    frame
}

/// What the caller of a stepped search sees while it runs.
struct Progress {
    t0: Instant,
    /// `(seconds since t0, best so far)` per report held by the caller.
    reports: Vec<(f64, f64)>,
    step_ms: Vec<f64>,
}

impl Progress {
    fn new(t0: Instant, base_score: f64) -> Self {
        Progress {
            t0,
            reports: vec![(t0.elapsed().as_secs_f64(), base_score)],
            step_ms: Vec::new(),
        }
    }

    /// Close a step's span under its stage name and log the report.
    fn step_done(&mut self, rec: &mut Recorder, span: SpanId, report: &EpochReport) {
        self.step_ms
            .push(rec.exit_as(span, stage_span(report.stage)) * 1e3);
        self.reports
            .push((self.t0.elapsed().as_secs_f64(), report.best_score));
    }
}

/// `start` / `step`… / `finish` under spans; returns the result, the
/// engineered table and what the caller saw on the way.
fn drive(
    engine: &Engine,
    frame: &DataFrame,
    rec: &mut Recorder,
    t0: Instant,
) -> Outcome<(RunResult, DataFrame, Progress)> {
    let span = rec.enter("eafe.start");
    let mut search = engine.start(frame).map_err(err("Engine::start"))?;
    rec.exit(span);
    let mut progress = Progress::new(t0, search.best_score());
    while !search.is_done() {
        let span = rec.enter("eafe.step");
        let report = engine.step(&mut search).map_err(err("Engine::step"))?;
        progress.step_done(rec, span, &report);
    }
    let span = rec.enter("eafe.finish");
    let (result, engineered) = engine.finish(&search).map_err(err("Engine::finish"))?;
    rec.exit(span);
    Ok((result, engineered, progress))
}

/// The program's spans must explain the wall time: the root span's self
/// time (time under no entry-point span) may be at most 5 %.
fn check_coverage(rec: &Recorder, root: SpanId) -> Outcome<()> {
    let root = root.index();
    let spans = rec.spans();
    let covered: f64 = spans
        .iter()
        .filter(|s| s.parent == Some(root))
        .map(|s| s.secs())
        .sum();
    let wall = spans[root].secs();
    if covered < 0.95 * wall {
        return Err(format!(
            "entry-point spans cover {:.1}% of wall ({covered:.4}s of {wall:.4}s)",
            100.0 * covered / wall
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// eafe_table / nfs_table
// ---------------------------------------------------------------------------

fn run_table(job: &Job, rec: &mut Recorder, fpe: &FpeModel) -> Outcome<Measured> {
    let csv =
        std::fs::read(inputs::csv_path(job.dir, job.member)).map_err(err("read input CSV"))?;
    let engine = inputs::engine(job.workload, &job.sizes, job.seed, 0, fpe);
    let sig0 = runtime::sig_cache_stats();
    let usage0 = usage_self();
    let t0 = Instant::now();

    let root = rec.enter("search");
    let frame = parse_table(job.workload, &csv, rec)?;
    let span = rec.enter("eafe.preselect");
    let frame = eafe::preselect_features(&frame, job.sizes.preselect, job.seed)
        .map_err(err("preselect_features"))?;
    rec.exit(span);
    let (result, engineered, progress) = drive(&engine, &frame, rec, t0)?;
    let span = rec.enter("tabular.csv_write");
    let mut out = Vec::with_capacity(csv.len());
    tabular::csv::write_csv(&engineered, &mut out).map_err(err("write engineered CSV"))?;
    rec.exit(span);
    let wall_s = rec.exit(root);
    let usage = usage_self();

    check_result(&result)?;
    check_coverage(rec, root)?;
    // The engineered CSV is the user-visible output: it must read back as
    // the very table the search returned.
    let back = tabular::csv::read_csv(&engineered.name, Task::Classification, &out[..])
        .map_err(err("re-read engineered CSV"))?;
    let digest = runtime::fingerprint_frame(&engineered);
    if runtime::fingerprint_frame(&back) != digest {
        return Err("engineered CSV does not round-trip bit-for-bit".into());
    }
    if engineered.n_cols() != frame.n_cols() + result.selected.len() {
        return Err("engineered table is not base columns + accepted features".into());
    }

    let mut m = Measured {
        fingerprint: fingerprint_result(&result, digest.0),
        wall_s,
        cpu_s: usage.cpu_s - usage0.cpu_s,
        peak_rss_mib: usage.peak_rss_mib,
        time_to_target_s: time_to_target(&progress.reports, result.base_score, result.best_score),
        downstream_evals: result.downstream_evals as u64,
        computed_evals: result.cache_misses,
        step_ms: progress.step_ms,
        ..Measured::default()
    };
    result_layers(&mut m.layer, &result);
    span_layers(&mut m.layer, rec);
    sig_layers(&mut m.layer, &sig0);
    Ok(m)
}

fn sig_layers(out: &mut Vec<(String, f64)>, before: &runtime::CacheStats) {
    let sig = runtime::sig_cache_stats().since(before);
    out.push((
        "runtime.sig_cache_lookups".into(),
        (sig.hits + sig.misses) as f64,
    ));
    out.push(("runtime.sig_cache_hit_frac".into(), sig.hit_rate()));
}

// ---------------------------------------------------------------------------
// eafe_tall
// ---------------------------------------------------------------------------

/// Removes the spill file on every exit path of the search.
struct SpillFile(PathBuf);

impl Drop for SpillFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn run_tall(job: &Job, rec: &mut Recorder, fpe: &FpeModel) -> Outcome<Measured> {
    let spill = SpillFile(
        job.dir
            .join(format!("tall-{}-{}.eafc", job.member, std::process::id())),
    );
    let frame =
        inputs::tall_frame(&job.sizes, job.seed, &spill.0).map_err(err("generate_chunked"))?;
    let engine = inputs::engine(job.workload, &job.sizes, job.seed, 0, fpe);
    let sig0 = runtime::sig_cache_stats();
    let usage0 = usage_self();
    let t0 = Instant::now();

    let root = rec.enter("search");
    let span = rec.enter("eafe.start");
    let mut search = engine
        .start_chunked(frame)
        .map_err(err("Engine::start_chunked"))?;
    rec.exit(span);
    let mut progress = Progress::new(t0, search.best_score());
    let mut resident_hwm = search.frame().stats().resident_bytes;
    while !search.is_done() {
        let span = rec.enter("eafe.step");
        let report = engine
            .step_chunked(&mut search)
            .map_err(err("Engine::step_chunked"))?;
        progress.step_done(rec, span, &report);
        resident_hwm = resident_hwm.max(search.frame().stats().resident_bytes);
    }
    let span = rec.enter("eafe.finish");
    let (result, engineered) = engine
        .finish_chunked(&search)
        .map_err(err("Engine::finish_chunked"))?;
    rec.exit(span);
    let wall_s = rec.exit(root);
    let usage = usage_self();

    check_result(&result)?;
    check_coverage(rec, root)?;
    let stats = search.frame().stats();
    let mut m = Measured {
        fingerprint: fingerprint_result(&result, chunked_digest(&engineered)?),
        wall_s,
        cpu_s: usage.cpu_s - usage0.cpu_s,
        peak_rss_mib: usage.peak_rss_mib,
        time_to_target_s: time_to_target(&progress.reports, result.base_score, result.best_score),
        downstream_evals: result.downstream_evals as u64,
        computed_evals: result.cache_misses,
        step_ms: progress.step_ms,
        ..Measured::default()
    };
    result_layers(&mut m.layer, &result);
    span_layers(&mut m.layer, rec);
    sig_layers(&mut m.layer, &sig0);
    m.layer
        .push(("tabular.chunks_spilled".into(), stats.chunks_spilled as f64));
    m.layer
        .push(("tabular.chunks_loaded".into(), stats.chunks_loaded as f64));
    m.layer.push((
        "tabular.resident_hwm_mib".into(),
        resident_hwm as f64 / (1024.0 * 1024.0),
    ));
    Ok(m)
}

// ---------------------------------------------------------------------------
// serve_4t
// ---------------------------------------------------------------------------

const TENANTS: usize = 4;

/// One tenant's event stream as its client saw it.
struct TenantStream {
    /// `(seconds since t0, best so far)` per progress report.
    reports: Vec<(f64, f64)>,
    /// `(stage, compute seconds billed so far)` per progress report.
    slices: Vec<(SearchStage, f64)>,
    /// Arrival time of every event, terminal one included.
    arrivals: Vec<f64>,
    outcome: Option<serve::JobOutcome>,
}

fn follow(handle: serve::JobHandle, t0: Instant) -> TenantStream {
    let mut stream = TenantStream {
        reports: Vec::new(),
        slices: Vec::new(),
        arrivals: Vec::new(),
        outcome: None,
    };
    while let Some(event) = handle.next_event() {
        let now = t0.elapsed().as_secs_f64();
        stream.arrivals.push(now);
        match event {
            serve::JobEvent::Epoch(r) => {
                stream.reports.push((now, r.best_score));
                stream.slices.push((r.stage, r.elapsed_secs));
            }
            serve::JobEvent::Done(o) => stream.outcome = Some(*o),
        }
    }
    stream
}

fn run_serve(job: &Job, rec: &mut Recorder, fpe: &FpeModel) -> Outcome<Measured> {
    let frame = read_table(job, rec)?;
    let engines: Vec<Engine> = (0..TENANTS)
        .map(|t| inputs::engine(job.workload, &job.sizes, job.seed, t, fpe))
        .collect();
    let sig0 = runtime::sig_cache_stats();
    let usage0 = usage_self();
    let t0 = Instant::now();

    let root = rec.enter("search");
    let span = rec.enter("serve.new");
    let server = serve::JobServer::new(serve::ServerConfig {
        max_active: TENANTS,
        ..serve::ServerConfig::default()
    })
    .map_err(err("JobServer::new"))?;
    rec.exit(span);
    let mut handles = Vec::with_capacity(TENANTS);
    for (t, engine) in engines.iter().enumerate() {
        let span = rec.enter("serve.submit");
        let handle = server
            .submit(
                &format!("tenant-{t}"),
                &frame,
                engine.clone(),
                serve::Budget::unlimited(),
            )
            .map_err(err("JobServer::submit"))?;
        rec.exit(span);
        handles.push(handle);
    }
    // Four clients that each wait for their own result: one follower
    // thread per tenant, blocked on its event stream.
    let span = rec.enter("serve.wait");
    let streams: Vec<TenantStream> = std::thread::scope(|scope| {
        let followers: Vec<_> = handles
            .into_iter()
            .map(|h| scope.spawn(move || follow(h, t0)))
            .collect();
        followers
            .into_iter()
            .map(|f| f.join().expect("a follower thread only reads its channel"))
            .collect()
    });
    rec.exit(span);
    let wall_s = rec.exit(root);
    let usage = usage_self();
    check_coverage(rec, root)?;

    let shared_cache = server.score_cache().clone();
    let cache = shared_cache.stats();
    let mut layer = Vec::new();
    sig_layers(&mut layer, &sig0);
    let admission_ms: f64 = (0..TENANTS)
        .map(|t| {
            let tenant = format!("tenant-{t}");
            server
                .metrics()
                .scoped()
                .scope(&[("tenant", tenant.as_str())])
                .histogram("serve.admission_wait_us")
                .snapshot()
                .mean()
                / 1e3
        })
        .sum::<f64>()
        / TENANTS as f64;
    drop(server);

    let mut m = Measured {
        wall_s,
        cpu_s: usage.cpu_s - usage0.cpu_s,
        peak_rss_mib: usage.peak_rss_mib,
        layer,
        ..Measured::default()
    };
    let mut print = Fnv::new();
    let (mut generated, mut compute_s, mut generation_s, mut eval_s) = (0usize, 0.0, 0.0, 0.0);
    // Compute seconds by stage, from the reports' own clock (a tenant's
    // first slice also carries its `start`).
    let mut stage_s = [0.0f64; 3];
    for (t, stream) in streams.iter().enumerate() {
        let mut billed = 0.0;
        for &(stage, elapsed) in &stream.slices {
            stage_s[stage as usize] += elapsed - billed;
            m.step_ms.push((elapsed - billed) * 1e3);
            billed = elapsed;
        }
        let outcome = stream
            .outcome
            .as_ref()
            .ok_or(format!("tenant {t}: no terminal event"))?;
        if outcome.status != serve::JobStatus::Completed {
            return Err(format!(
                "tenant {t}: status {:?}: {:?}",
                outcome.status, outcome.error
            ));
        }
        let (result, engineered) = outcome
            .result
            .as_ref()
            .zip(outcome.engineered.as_ref())
            .ok_or(format!("tenant {t}: completed without a result"))?;
        check_result(result)?;
        let served = fingerprint_result(result, runtime::fingerprint_frame(engineered).0);
        // Reference: the same search stepped directly, one tenant after the
        // other. It reads the served run's scores back from the shared
        // cache (evaluations are pure functions of the table), so what it
        // checks is everything the server adds: slicing, rotation,
        // per-tenant state and seeds.
        let direct_engine = engines[t].clone().with_cache(shared_cache.clone());
        let (direct, direct_frame) = direct_engine
            .run_full(&frame)
            .map_err(err("direct reference run"))?;
        if served != fingerprint_result(&direct, runtime::fingerprint_frame(&direct_frame).0) {
            return Err(format!(
                "tenant {t}: served result differs from direct stepping"
            ));
        }
        print = print.word(served);
        m.time_to_target_s = m.time_to_target_s.max(time_to_target(
            &stream.reports,
            result.base_score,
            result.best_score,
        ));
        m.downstream_evals += result.downstream_evals as u64;
        generated += result.generated_features;
        compute_s += result.total_secs;
        generation_s += result.generation_secs;
        eval_s += result.eval_secs;
        m.report_gap_ms
            .extend(stream.arrivals.windows(2).map(|w| (w[1] - w[0]) * 1e3));
    }
    m.fingerprint = print.finish();
    m.computed_evals = cache.misses;

    let mut put = |k: &str, v: f64| m.layer.push((k.to_string(), v));
    put("tabular.csv_read_s", rec.total_secs("tabular.csv_read"));
    put("eafe.generated", generated as f64);
    put("eafe.downstream_evals", m.downstream_evals as f64);
    put(
        "eafe.gate_pass_frac",
        m.downstream_evals as f64 / generated.max(1) as f64,
    );
    put("eafe.generation_s", generation_s);
    put("eafe.eval_s", eval_s);
    for stage in [SearchStage::Stage1, SearchStage::Seed, SearchStage::Stage2] {
        put(&format!("{}_s", stage_span(stage)), stage_s[stage as usize]);
    }
    put("runtime.cache_hits", cache.hits as f64);
    put("runtime.cache_misses", cache.misses as f64);
    put("runtime.cache_hit_frac", cache.hit_rate());
    put("serve.shared_cache_hit_frac", cache.hit_rate());
    put(
        "serve.submit_us",
        rec.total_secs("serve.submit") / TENANTS as f64 * 1e6,
    );
    put("serve.admission_wait_ms", admission_ms);
    put("serve.sched_overhead_frac", 1.0 - compute_s / wall_s);
    Ok(m)
}

// ---------------------------------------------------------------------------
// dist_2w
// ---------------------------------------------------------------------------

const WORKERS: usize = 2;

/// Wait for a worker process and read the usage line it prints on exit.
fn reap(mut child: std::process::Child) -> Outcome<(f64, f64)> {
    let mut text = String::new();
    if let Some(mut out) = child.stdout.take() {
        out.read_to_string(&mut text)
            .map_err(err("read worker stdout"))?;
    }
    let status = child.wait().map_err(err("wait for worker"))?;
    if !status.success() {
        return Err(format!("worker exited with {status}"));
    }
    let line = text.lines().last().ok_or("worker printed no usage line")?;
    let v = serde_json::parse(line).map_err(err("parse worker usage line"))?;
    Ok((
        crate::json::get_f64(&v, "cpu_s"),
        crate::json::get_f64(&v, "peak_rss_mib"),
    ))
}

/// Kills and reaps any worker still running when the search bails out.
struct Workers(Vec<std::process::Child>);

impl Drop for Workers {
    fn drop(&mut self) {
        for child in &mut self.0 {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

fn run_dist(job: &Job, rec: &mut Recorder, fpe: &FpeModel) -> Outcome<Measured> {
    let frame = read_table(job, rec)?;
    let engine = inputs::engine(job.workload, &job.sizes, job.seed, 0, fpe);
    let exe = std::env::current_exe().map_err(err("current_exe"))?;
    let listener = std::net::TcpListener::bind("127.0.0.1:0").map_err(err("bind loopback"))?;
    let addr = listener
        .local_addr()
        .map_err(err("local_addr"))?
        .to_string();
    let mut workers = Workers(Vec::new());
    for _ in 0..WORKERS {
        let child = std::process::Command::new(&exe)
            .args(["worker", "--connect", &addr])
            .stdout(std::process::Stdio::piped())
            .spawn()
            .map_err(err("spawn worker"))?;
        workers.0.push(child);
    }
    let mut transports = Vec::with_capacity(WORKERS);
    for _ in 0..WORKERS {
        let (stream, _) = listener.accept().map_err(err("accept worker"))?;
        transports.push(dist::TcpTransport::from_stream(stream));
    }
    let mut coordinator = dist::Coordinator::new(transports);
    // Coordinator 1 thread + 2 workers × 1 thread on the 2-core host.
    runtime::set_global_threads(1);
    let before = runtime::global_dist_stats();
    let sig0 = runtime::sig_cache_stats();
    let usage0 = usage_self();

    let root = rec.enter("search");
    let span = rec.enter("dist.run");
    let (result, engineered) = coordinator
        .run(&engine, &frame)
        .map_err(err("Coordinator::run"))?;
    rec.exit(span);
    let wall_s = rec.exit(root);
    let usage = usage_self();
    let (mut cpu_s, mut peak_rss_mib) = (usage.cpu_s - usage0.cpu_s, usage.peak_rss_mib);
    drop(coordinator);
    for child in std::mem::take(&mut workers.0) {
        let (worker_cpu, worker_rss) = reap(child)?;
        cpu_s += worker_cpu;
        peak_rss_mib += worker_rss;
    }
    let after = runtime::global_dist_stats();
    let mut layer = Vec::new();
    sig_layers(&mut layer, &sig0);
    check_result(&result)?;
    check_coverage(rec, root)?;

    // Reference: the same search solo, at the host's full thread budget.
    runtime::set_global_threads(THREADS);
    let solo_t0 = Instant::now();
    let (solo, solo_frame) = engine.run_full(&frame).map_err(err("solo reference run"))?;
    let solo_wall_s = solo_t0.elapsed().as_secs_f64();
    let fingerprint = fingerprint_result(&result, runtime::fingerprint_frame(&engineered).0);
    if fingerprint != fingerprint_result(&solo, runtime::fingerprint_frame(&solo_frame).0) {
        return Err("distributed result differs from the solo search".into());
    }

    // The coordinator's own clock excludes wire time, so its trace gives
    // the time to target in compute seconds (documented in the README).
    let reports: Vec<(f64, f64)> = result
        .trace
        .iter()
        .map(|p| (p.elapsed_secs, p.score))
        .collect();
    let merged = after.entries_merged - before.entries_merged;
    let step_ms: Vec<f64> = reports
        .windows(2)
        .map(|w| (w[1].0 - w[0].0) * 1e3)
        .collect();
    let mut m = Measured {
        fingerprint,
        wall_s,
        cpu_s,
        peak_rss_mib,
        time_to_target_s: time_to_target(&reports, result.base_score, result.best_score),
        downstream_evals: result.downstream_evals as u64,
        // Distinct evaluations the search needs, wherever they were computed.
        computed_evals: solo.cache_misses,
        step_ms,
        layer,
        ..Measured::default()
    };
    result_layers(&mut m.layer, &result);
    let mut put = |k: &str, v: f64| m.layer.push((k.to_string(), v));
    put("tabular.csv_read_s", rec.total_secs("tabular.csv_read"));
    // NFS has no stage 1: the trace's first point is `start`, the rest stage 2.
    put("eafe.start_s", reports[0].0);
    put("eafe.stage2_s", reports[reports.len() - 1].0 - reports[0].0);
    put(
        "dist.shards_dispatched",
        (after.shards_dispatched - before.shards_dispatched) as f64,
    );
    put(
        "dist.shards_retried",
        (after.shards_retried - before.shards_retried) as f64,
    );
    put("dist.entries_merged", merged as f64);
    put(
        "dist.entries_fresh",
        (after.entries_fresh - before.entries_fresh) as f64,
    );
    put("dist.wire_s", (after.wire_us - before.wire_us) as f64 / 1e6);
    put(
        "dist.bytes_mib",
        ((after.bytes_sent - before.bytes_sent) + (after.bytes_received - before.bytes_received))
            as f64
            / (1024.0 * 1024.0),
    );
    put(
        "dist.spec_useful_frac",
        result.cache_hits as f64 / merged.max(1) as f64,
    );
    // Not a listed metric: `run` derives `dist_vs_solo_wall_ratio` from it.
    put("dist.solo_wall_s", solo_wall_s);
    Ok(m)
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

pub fn load_fpe(dir: &Path) -> Outcome<FpeModel> {
    let json = std::fs::read_to_string(inputs::fpe_path(dir)).map_err(err("read FPE model"))?;
    FpeModel::from_json(&json).map_err(err("parse FPE model"))
}

/// Run one search of `job.workload` in this process.
pub fn run(job: &Job, rec: &mut Recorder) -> Outcome<Measured> {
    runtime::set_global_threads(THREADS);
    let fpe = load_fpe(job.dir)?;
    let mut m = match job.workload {
        "eafe_table" | "nfs_table" => run_table(job, rec, &fpe),
        "eafe_tall" => run_tall(job, rec, &fpe),
        "serve_4t" => run_serve(job, rec, &fpe),
        "dist_2w" => run_dist(job, rec, &fpe),
        other => Err(format!("unknown workload {other}")),
    }?;
    m.layer.push((
        "runtime.pool_inline_fallbacks".into(),
        telemetry::global()
            .snapshot()
            .counter("pool.inline_fallback") as f64,
    ));
    Ok(m)
}

/// Worker mode of the bench binary: serve one coordinator session, then
/// print this process's CPU seconds and peak RSS for the parent to add up.
pub fn worker(addr: &str) -> i32 {
    runtime::set_global_threads(1);
    let served = dist::TcpTransport::connect(addr)
        .and_then(|mut transport| dist::Worker::serve(&mut transport));
    let usage = usage_self();
    println!(
        "{{\"cpu_s\":{},\"peak_rss_mib\":{}}}",
        usage.cpu_s, usage.peak_rss_mib
    );
    match served {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("perf-e2e worker: {e}");
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eafe::EpochPoint;

    fn result() -> RunResult {
        RunResult {
            method: "NFS".into(),
            dataset: "t".into(),
            base_score: 0.5,
            best_score: 0.75,
            trace: vec![
                EpochPoint {
                    epoch: 0,
                    score: 0.5,
                    downstream_evals: 1,
                    elapsed_secs: 0.1,
                },
                EpochPoint {
                    epoch: 1,
                    score: 0.75,
                    downstream_evals: 9,
                    elapsed_secs: 0.4,
                },
            ],
            generated_features: 12,
            downstream_evals: 9,
            selected: vec!["a+b".into()],
            generation_secs: 0.01,
            eval_secs: 0.3,
            total_secs: 0.4,
            cache_hits: 2,
            cache_misses: 7,
        }
    }

    #[test]
    fn fnv_matches_the_reference_vectors() {
        assert_eq!(Fnv::new().finish(), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv::new().bytes(b"a").finish(), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(Fnv::new().bytes(b"foobar").finish(), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn fingerprint_is_stable_and_sees_every_field() {
        let base = fingerprint_result(&result(), 42);
        assert_eq!(base, fingerprint_result(&result(), 42));
        // Timings are not part of the result.
        let mut r = result();
        r.total_secs = 9.0;
        r.trace[1].elapsed_secs = 8.0;
        assert_eq!(base, fingerprint_result(&r, 42));
        let mut r = result();
        r.best_score = f64::from_bits(r.best_score.to_bits() + 1);
        assert_ne!(base, fingerprint_result(&r, 42));
        let mut r = result();
        r.selected = vec!["a".into(), "+b".into()];
        assert_ne!(base, fingerprint_result(&r, 42));
        let mut r = result();
        r.trace[0].score = 0.25;
        assert_ne!(base, fingerprint_result(&r, 42));
        assert_ne!(base, fingerprint_result(&result(), 43));
        assert_ne!(base, fingerprint_result(&result(), 42 << 64));
    }

    #[test]
    fn structural_checks_catch_broken_results() {
        assert!(check_result(&result()).is_ok());
        let mut r = result();
        r.best_score = 0.4;
        assert!(check_result(&r).is_err());
        let mut r = result();
        r.trace[1].score = 0.1;
        assert!(check_result(&r).is_err());
        let mut r = result();
        r.base_score = f64::NAN;
        assert!(check_result(&r).is_err());
    }

    #[test]
    fn time_to_target_is_first_report_at_ninety_percent() {
        let reports = [(0.1, 0.5), (0.2, 0.6), (0.3, 0.74), (0.4, 0.75)];
        assert_eq!(time_to_target(&reports, 0.5, 0.75), 0.3);
        // No improvement: the first report already holds the target.
        assert_eq!(time_to_target(&reports[..1], 0.5, 0.5), 0.1);
    }
}
