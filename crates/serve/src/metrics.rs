//! Per-tenant metrics and the `/metrics` page.
//!
//! The driver calls [`ServerMetrics::record_slice`] after every slice it
//! commits and [`ServerMetrics::record_admission_wait`] at every
//! promotion, both outside the scheduler lock; each records into the
//! tenant's scope of a [`ScopedRegistry`]. [`prometheus`] renders the
//! scopes, and the process-wide frame and `dist` figures, as the
//! `/metrics` page. A job's own figures — its `/status` row and series —
//! are the scheduler's job record, not kept here.
//!
//! Everything here is observability-only: recording never feeds back
//! into scheduling, so served results stay bit-identical with metrics
//! on or off.

use serde::Serialize;
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, PoisonError, RwLock};
use telemetry::{Counter, Histogram, HistogramSnapshot, Registry, RegistrySnapshot};

/// A sorted, owned `key=value` label set: a scope's identity.
type LabelSet = Vec<(String, String)>;

/// Labelled metrics: one telemetry [`Registry`] per label set, so the
/// same metric name (`serve.epoch_us`, `serve.evals`) is recorded
/// separately per tenant. Resolving a [`Scope`] takes one lock; recording
/// through the counters and histograms it hands out takes none.
#[derive(Debug, Default)]
pub struct ScopedRegistry {
    scopes: RwLock<HashMap<LabelSet, Arc<Registry>>>,
}

impl ScopedRegistry {
    /// Resolve (creating on first use) the scope for `labels`. Label
    /// order does not matter — `[("a","1"),("b","2")]` and
    /// `[("b","2"),("a","1")]` name the same scope. An empty slice names
    /// the root (unlabelled) scope.
    pub fn scope(&self, labels: &[(&str, &str)]) -> Scope {
        let mut set: LabelSet = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        set.sort();
        // Every holder changes the map by one insert, so a poisoned lock
        // still guards a whole map.
        let scopes = self.scopes.read().unwrap_or_else(PoisonError::into_inner);
        if let Some(registry) = scopes.get(&set) {
            return Scope(Arc::clone(registry));
        }
        drop(scopes);
        let mut scopes = self.scopes.write().unwrap_or_else(PoisonError::into_inner);
        Scope(Arc::clone(scopes.entry(set).or_default()))
    }

    /// Every scope's metrics, sorted by label set, and by name within a
    /// scope.
    pub(crate) fn snapshot(&self) -> Vec<(LabelSet, RegistrySnapshot)> {
        let scopes = self.scopes.read().unwrap_or_else(PoisonError::into_inner);
        let mut out: Vec<_> = scopes
            .iter()
            .map(|(labels, registry)| (labels.clone(), registry.snapshot()))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }
}

/// The metrics of one label set. Cheap to clone.
#[derive(Debug, Clone)]
pub struct Scope(Arc<Registry>);

impl Scope {
    /// Resolve the counter named `name` within this scope.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.0.counter(name)
    }

    /// Resolve the histogram named `name` within this scope.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.0.histogram(name)
    }
}

/// The server's per-tenant metrics.
#[derive(Debug, Default)]
pub struct ServerMetrics {
    scoped: ScopedRegistry,
}

impl ServerMetrics {
    /// The scopes, one per tenant (`[("tenant", name)]`), holding
    /// `serve.epochs`, `serve.evals`, `serve.epoch_us` and
    /// `serve.admission_wait_us`.
    pub fn scoped(&self) -> &ScopedRegistry {
        &self.scoped
    }

    /// Record one committed slice that stepped the engine: its wall time
    /// and the downstream evaluations it added.
    pub(crate) fn record_slice(&self, tenant: &str, epoch_us: u64, evals: u64) {
        let scope = self.scoped.scope(&[("tenant", tenant)]);
        scope.histogram("serve.epoch_us").record(epoch_us);
        scope.counter("serve.epochs").inc();
        scope.counter("serve.evals").add(evals);
    }

    /// Record how long a job waited between submission and its first
    /// active slot.
    pub(crate) fn record_admission_wait(&self, tenant: &str, wait_us: u64) {
        self.scoped
            .scope(&[("tenant", tenant)])
            .histogram("serve.admission_wait_us")
            .record(wait_us);
    }
}

/// The `/metrics` page, in the Prometheus text exposition format. Every
/// scope's counters render as `counter` and its histograms as `summary`
/// (p50/p90/p99 quantile lines, `_sum` and `_count`), metric names sorted
/// and label sets sorted within each metric. Then come the process-wide
/// chunked-frame and distributed-search figures, which belong to no
/// tenant, as `frame_*` and `dist_*` counters and gauges.
pub(crate) fn prometheus(scoped: &ScopedRegistry) -> String {
    // `serve.epoch_us` becomes `serve_epoch_us`: anything outside
    // `[a-zA-Z0-9_:]` becomes `_`.
    let name = |s: &str| -> String {
        s.chars()
            .map(|c| match c {
                'a'..='z' | 'A'..='Z' | '0'..='9' | '_' | ':' => c,
                _ => '_',
            })
            .collect()
    };
    // `{k="v",...}` with `\`, `"` and newline escaped in the values, and
    // `extra` (a quantile) last; nothing at all for an empty set.
    let labels = |set: &LabelSet, extra: Option<(&str, &str)>| -> String {
        let mut parts: Vec<String> = set
            .iter()
            .map(|(k, v)| {
                let v = v.replace('\\', "\\\\").replace('"', "\\\"");
                format!("{}=\"{}\"", name(k), v.replace('\n', "\\n"))
            })
            .collect();
        parts.extend(extra.map(|(k, v)| format!("{k}=\"{v}\"")));
        if parts.is_empty() {
            String::new()
        } else {
            format!("{{{}}}", parts.join(","))
        }
    };

    let snapshot = scoped.snapshot();
    let mut counters: BTreeMap<&str, Vec<(&LabelSet, u64)>> = BTreeMap::new();
    let mut histograms: BTreeMap<&str, Vec<(&LabelSet, &HistogramSnapshot)>> = BTreeMap::new();
    for (set, snap) in &snapshot {
        for (metric, value) in &snap.counters {
            counters.entry(metric).or_default().push((set, *value));
        }
        for (metric, h) in &snap.histograms {
            histograms.entry(metric).or_default().push((set, h));
        }
    }
    let mut out = String::new();
    for (metric, values) in counters {
        let metric = name(metric);
        out.push_str(&format!("# TYPE {metric} counter\n"));
        for (set, value) in values {
            out.push_str(&format!("{metric}{} {value}\n", labels(set, None)));
        }
    }
    for (metric, values) in histograms {
        let metric = name(metric);
        out.push_str(&format!("# TYPE {metric} summary\n"));
        for (set, h) in values {
            for (q, v) in [("0.5", h.p50), ("0.9", h.p90), ("0.99", h.p99)] {
                let set = labels(set, Some(("quantile", q)));
                out.push_str(&format!("{metric}{set} {v}\n"));
            }
            let set = labels(set, None);
            out.push_str(&format!("{metric}_sum{set} {}\n", h.sum));
            out.push_str(&format!("{metric}_count{set} {}\n", h.count));
        }
    }

    let gauges = ["chunks_resident", "resident_bytes", "workers_live"];
    for (prefix, stats) in [
        ("frame", tabular::global_frame_stats().to_value()),
        ("dist", runtime::global_dist_stats().to_value()),
    ] {
        for (field, value) in stats.as_map().unwrap_or_default() {
            let kind = if gauges.contains(&field.as_str()) {
                "gauge"
            } else {
                "counter"
            };
            let value = value.as_u64().unwrap_or_default();
            out.push_str(&format!(
                "# TYPE {prefix}_{field} {kind}\n{prefix}_{field} {value}\n"
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(labels: &[(&str, &str)]) -> LabelSet {
        labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn slices_accumulate_per_tenant() {
        let m = ServerMetrics::default();
        m.record_slice("a", 100, 2);
        m.record_slice("a", 300, 2);
        let a = m.scoped().scope(&[("tenant", "a")]);
        assert_eq!(a.counter("serve.epochs").get(), 2);
        assert_eq!(a.counter("serve.evals").get(), 4);
        assert_eq!(a.histogram("serve.epoch_us").snapshot().count, 2);
    }

    #[test]
    fn prometheus_page_carries_tenant_labels() {
        let m = ServerMetrics::default();
        m.record_slice("retail", 100, 2);
        let text = prometheus(m.scoped());
        assert!(text.contains("serve_epochs{tenant=\"retail\"} 1"));
        assert!(text.contains("serve_epoch_us{tenant=\"retail\",quantile=\"0.99\"}"));
    }

    #[test]
    fn label_order_is_irrelevant() {
        let s = ScopedRegistry::default();
        s.scope(&[("tenant", "a"), ("job", "1")])
            .counter("evals")
            .add(2);
        s.scope(&[("job", "1"), ("tenant", "a")])
            .counter("evals")
            .add(3);
        let sets: Vec<LabelSet> = s.snapshot().into_iter().map(|(set, _)| set).collect();
        assert_eq!(
            sets,
            vec![set(&[("job", "1"), ("tenant", "a")])],
            "one scope regardless of label order"
        );
        let scope = s.scope(&[("tenant", "a"), ("job", "1")]);
        assert_eq!(scope.counter("evals").get(), 5);
    }

    #[test]
    fn scopes_are_isolated() {
        let s = ScopedRegistry::default();
        s.scope(&[("tenant", "a")]).counter("x").inc();
        s.scope(&[("tenant", "b")]).counter("x").add(7);
        s.scope(&[]).counter("x").add(100);
        let counts: Vec<(LabelSet, u64)> = s
            .snapshot()
            .into_iter()
            .map(|(set, snap)| (set, snap.counter("x")))
            .collect();
        assert_eq!(
            counts,
            vec![
                (set(&[]), 100),
                (set(&[("tenant", "a")]), 1),
                (set(&[("tenant", "b")]), 7),
            ]
        );
    }

    #[test]
    fn snapshot_is_deterministically_ordered() {
        // Populate two registries in opposite orders; their snapshots
        // and pages must be equal.
        let mk = |reverse: bool| {
            let s = ScopedRegistry::default();
            let mut scopes = vec![
                vec![("tenant", "a")],
                vec![("tenant", "b")],
                vec![("job", "1"), ("tenant", "a")],
            ];
            let mut names = ["a", "m", "z"];
            if reverse {
                scopes.reverse();
                names.reverse();
            }
            for labels in &scopes {
                let scope = s.scope(labels);
                for name in names {
                    scope.counter(name).add(1);
                    scope.histogram(&format!("h.{name}")).record(3);
                }
            }
            (s.snapshot(), prometheus(&s))
        };
        assert_eq!(mk(false), mk(true));
    }

    #[test]
    fn prometheus_rendering_is_wellformed() {
        let s = ScopedRegistry::default();
        let a = s.scope(&[("tenant", "a")]);
        a.counter("serve.epochs").add(3);
        a.histogram("serve.epoch_us").record(100);
        a.histogram("serve.epoch_us").record(200);
        s.scope(&[]).counter("queue.depth").add(2);

        let text = prometheus(&s);
        assert!(text.contains("# TYPE serve_epochs counter\n"));
        assert!(text.contains("serve_epochs{tenant=\"a\"} 3\n"));
        assert!(text.contains("# TYPE serve_epoch_us summary\n"));
        assert!(text.contains("serve_epoch_us{tenant=\"a\",quantile=\"0.5\"}"));
        assert!(text.contains("serve_epoch_us_sum{tenant=\"a\"} 300\n"));
        assert!(text.contains("serve_epoch_us_count{tenant=\"a\"} 2\n"));
        // Root-scope metrics render without braces.
        assert!(text.contains("queue_depth 2\n"));
        // Dots never leak into metric names.
        assert!(!text.contains("serve.epochs"));
    }

    #[test]
    fn prometheus_escapes_label_values() {
        let s = ScopedRegistry::default();
        s.scope(&[("tenant", "a\"b\\c")]).counter("x").inc();
        let text = prometheus(&s);
        assert!(text.contains("x{tenant=\"a\\\"b\\\\c\"} 1\n"));
    }

    #[test]
    fn concurrent_scope_resolution_accumulates_exactly() {
        let s = Arc::new(ScopedRegistry::default());
        let threads: Vec<_> = (0..8)
            .map(|i| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    let tenant = if i % 2 == 0 { "even" } else { "odd" };
                    for _ in 0..1000 {
                        s.scope(&[("tenant", tenant)]).counter("n").inc();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let counts: Vec<(LabelSet, u64)> = s
            .snapshot()
            .into_iter()
            .map(|(set, snap)| (set, snap.counter("n")))
            .collect();
        assert_eq!(
            counts,
            vec![
                (set(&[("tenant", "even")]), 4000),
                (set(&[("tenant", "odd")]), 4000),
            ]
        );
    }
}
