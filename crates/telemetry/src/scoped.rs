//! Labeled metrics: one [`Registry`] namespace per label set.
//!
//! A multi-tenant process wants the same metric name — `serve.epoch_us`,
//! `serve.evals` — recorded separately per tenant, per job, per stage.
//! [`ScopedRegistry`] is a concurrent map from a *label set* (sorted
//! `key=value` pairs) to an inner [`Registry`]; resolving a
//! [`Scope`] takes one lock, and recording through the scope then follows
//! the same lock-free-after-resolve discipline as the plain registry
//! (callers that cache `Arc<Counter>` / `Arc<Histogram>` handles record
//! with plain atomics).
//!
//! Snapshots are deterministic: scopes sort by label set, metrics within
//! each scope sort by name (the [`Registry`] guarantee), so serialising a
//! [`ScopedSnapshot`] twice from the same state yields identical bytes.
//! [`ScopedSnapshot::to_prometheus`] renders the whole thing in the
//! Prometheus text exposition format (counters as `counter`, histograms
//! as `summary` with p50/p90/p99 quantile lines), which is what the serve
//! crate's `/metrics` page returns.
//!
//! ```
//! let scoped = telemetry::ScopedRegistry::new();
//! let tenant_a = scoped.scope(&[("tenant", "a")]);
//! tenant_a.counter("serve.epochs").inc();
//! tenant_a.histogram("serve.epoch_us").record(1500);
//!
//! let snap = scoped.snapshot();
//! assert_eq!(snap.get(&[("tenant", "a")]).unwrap().counter("serve.epochs"), 1);
//! assert!(snap.to_prometheus().contains("serve_epochs{tenant=\"a\"} 1"));
//! ```

use crate::metrics::{Counter, Histogram, Registry, RegistrySnapshot};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::{Arc, RwLock};

/// A sorted, owned `key=value` label set (the scope identity).
pub(crate) type LabelSet = Vec<(String, String)>;

fn label_set(labels: &[(&str, &str)]) -> LabelSet {
    let mut set: LabelSet = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    set.sort();
    set
}

/// A concurrent map from label set to an inner metrics [`Registry`].
#[derive(Debug, Default)]
pub struct ScopedRegistry {
    scopes: RwLock<HashMap<LabelSet, Arc<Registry>>>,
}

impl ScopedRegistry {
    /// New registry with no scopes.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resolve (creating on first use) the scope for `labels`. Label
    /// order does not matter — sets are sorted by key, so
    /// `[("a","1"),("b","2")]` and `[("b","2"),("a","1")]` name the same
    /// scope. An empty slice names the root (unlabeled) scope.
    pub fn scope(&self, labels: &[(&str, &str)]) -> Scope {
        let set = label_set(labels);
        if let Some(r) = crate::recover(self.scopes.read()).get(&set) {
            return Scope {
                labels: set,
                registry: Arc::clone(r),
            };
        }
        let registry = Arc::clone(
            crate::recover(self.scopes.write())
                .entry(set.clone())
                .or_default(),
        );
        Scope {
            labels: set,
            registry,
        }
    }

    /// Number of distinct label sets seen so far.
    pub fn len(&self) -> usize {
        crate::recover(self.scopes.read()).len()
    }

    /// True when no scope has been resolved yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot every scope, sorted by label set (and metrics sorted by
    /// name within each scope) — byte-deterministic to serialise.
    pub fn snapshot(&self) -> ScopedSnapshot {
        let mut scopes: Vec<(LabelSet, RegistrySnapshot)> = crate::recover(self.scopes.read())
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect();
        scopes.sort_by(|a, b| a.0.cmp(&b.0));
        ScopedSnapshot { scopes }
    }

    /// Drop every scope (fresh-run boundaries in long-lived processes).
    pub fn clear(&self) {
        crate::recover(self.scopes.write()).clear();
    }
}

/// A resolved (label set, registry) pair. Cheap to clone; metric
/// resolution inside the scope follows [`Registry`]'s
/// lock-free-after-resolve discipline.
#[derive(Debug, Clone)]
pub struct Scope {
    labels: LabelSet,
    registry: Arc<Registry>,
}

impl Scope {
    /// The sorted label set this scope records under.
    pub fn labels(&self) -> &[(String, String)] {
        &self.labels
    }

    /// Resolve the counter named `name` within this scope.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.registry.counter(name)
    }

    /// Resolve the histogram named `name` within this scope.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.registry.histogram(name)
    }

    /// The scope's underlying registry (for snapshotting one scope).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }
}

/// Point-in-time view of a whole [`ScopedRegistry`]: one
/// [`RegistrySnapshot`] per label set, sorted by label set.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ScopedSnapshot {
    /// `(labels, snapshot)` per scope, sorted by label set.
    pub scopes: Vec<(LabelSet, RegistrySnapshot)>,
}

/// Replace every character outside `[a-zA-Z0-9_:]` with `_` (metric
/// names like `serve.epoch_us` become `serve_epoch_us`).
fn prom_name(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Escape a label value per the exposition format (`\`, `"`, newline).
fn prom_escape(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Render `{k="v",...}`; extra appends e.g. `quantile="0.5"`. Empty
/// label set with no extra renders as the empty string.
fn prom_labels(labels: &LabelSet, extra: Option<(&str, &str)>) -> String {
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{}=\"{}\"", prom_name(k), prom_escape(v)))
        .collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{v}\""));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

impl ScopedSnapshot {
    /// The snapshot recorded under exactly `labels`, if that scope exists.
    pub fn get(&self, labels: &[(&str, &str)]) -> Option<&RegistrySnapshot> {
        let set = label_set(labels);
        self.scopes.iter().find(|(k, _)| *k == set).map(|(_, v)| v)
    }

    /// Render in the Prometheus text exposition format, deterministically
    /// ordered: metric names sorted, label sets sorted within each metric.
    /// Counters render as `counter`; histograms as `summary` with
    /// p50/p90/p99 quantile series plus `_sum` and `_count`.
    pub fn to_prometheus(&self) -> String {
        // Group by metric name first so each # TYPE header appears once.
        let mut counter_names: Vec<&str> = Vec::new();
        let mut histogram_names: Vec<&str> = Vec::new();
        for (_, snap) in &self.scopes {
            for (name, _) in &snap.counters {
                if !counter_names.contains(&name.as_str()) {
                    counter_names.push(name);
                }
            }
            for (name, _) in &snap.histograms {
                if !histogram_names.contains(&name.as_str()) {
                    histogram_names.push(name);
                }
            }
        }
        counter_names.sort_unstable();
        histogram_names.sort_unstable();

        let mut out = String::new();
        for name in counter_names {
            let pname = prom_name(name);
            out.push_str(&format!("# TYPE {pname} counter\n"));
            for (labels, snap) in &self.scopes {
                for (n, v) in &snap.counters {
                    if n == name {
                        out.push_str(&format!("{pname}{} {v}\n", prom_labels(labels, None)));
                    }
                }
            }
        }
        for name in histogram_names {
            let pname = prom_name(name);
            out.push_str(&format!("# TYPE {pname} summary\n"));
            for (labels, snap) in &self.scopes {
                for (n, h) in &snap.histograms {
                    if n != name {
                        continue;
                    }
                    for (q, v) in [("0.5", h.p50), ("0.9", h.p90), ("0.99", h.p99)] {
                        out.push_str(&format!(
                            "{pname}{} {v}\n",
                            prom_labels(labels, Some(("quantile", q)))
                        ));
                    }
                    out.push_str(&format!(
                        "{pname}_sum{} {}\n",
                        prom_labels(labels, None),
                        h.sum
                    ));
                    out.push_str(&format!(
                        "{pname}_count{} {}\n",
                        prom_labels(labels, None),
                        h.count
                    ));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn label_order_is_irrelevant() {
        let s = ScopedRegistry::new();
        s.scope(&[("tenant", "a"), ("job", "1")])
            .counter("evals")
            .add(2);
        s.scope(&[("job", "1"), ("tenant", "a")])
            .counter("evals")
            .add(3);
        assert_eq!(s.len(), 1, "one scope regardless of label order");
        let snap = s.snapshot();
        assert_eq!(
            snap.get(&[("tenant", "a"), ("job", "1")])
                .unwrap()
                .counter("evals"),
            5
        );
    }

    #[test]
    fn scopes_are_isolated() {
        let s = ScopedRegistry::new();
        s.scope(&[("tenant", "a")]).counter("x").inc();
        s.scope(&[("tenant", "b")]).counter("x").add(7);
        s.scope(&[]).counter("x").add(100);
        let snap = s.snapshot();
        assert_eq!(snap.get(&[("tenant", "a")]).unwrap().counter("x"), 1);
        assert_eq!(snap.get(&[("tenant", "b")]).unwrap().counter("x"), 7);
        assert_eq!(snap.get(&[]).unwrap().counter("x"), 100);
        assert!(snap.get(&[("tenant", "zzz")]).is_none());
    }

    #[test]
    fn snapshot_is_deterministically_ordered_and_serialised() {
        // Populate two registries in opposite orders; their snapshots
        // must serialise to identical bytes.
        let mk = |reverse: bool| {
            let s = ScopedRegistry::new();
            let scopes: Vec<Vec<(&str, &str)>> = vec![
                vec![("tenant", "a")],
                vec![("tenant", "b")],
                vec![("job", "1"), ("tenant", "a")],
            ];
            let iter: Vec<_> = if reverse {
                scopes.iter().rev().collect()
            } else {
                scopes.iter().collect()
            };
            for labels in iter {
                let scope = s.scope(labels);
                for name in if reverse {
                    ["z", "m", "a"]
                } else {
                    ["a", "m", "z"]
                } {
                    scope.counter(name).add(1);
                    scope.histogram(&format!("h.{name}")).record(3);
                }
            }
            serde_json::to_string(&s.snapshot()).unwrap()
        };
        assert_eq!(mk(false), mk(true));
    }

    #[test]
    fn prometheus_rendering_is_wellformed() {
        let s = ScopedRegistry::new();
        let a = s.scope(&[("tenant", "a")]);
        a.counter("serve.epochs").add(3);
        a.histogram("serve.epoch_us").record(100);
        a.histogram("serve.epoch_us").record(200);
        s.scope(&[]).counter("queue.depth").add(2);

        let text = s.snapshot().to_prometheus();
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
        let s = ScopedRegistry::new();
        s.scope(&[("tenant", "a\"b\\c")]).counter("x").inc();
        let text = s.snapshot().to_prometheus();
        assert!(text.contains("x{tenant=\"a\\\"b\\\\c\"} 1\n"));
    }

    #[test]
    fn clear_empties_all_scopes() {
        let s = ScopedRegistry::new();
        s.scope(&[("t", "a")]).counter("x").inc();
        s.clear();
        assert!(s.is_empty());
        assert!(s.snapshot().scopes.is_empty());
    }

    #[test]
    fn concurrent_scope_resolution_accumulates_exactly() {
        let s = Arc::new(ScopedRegistry::new());
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
        let snap = s.snapshot();
        assert_eq!(snap.get(&[("tenant", "even")]).unwrap().counter("n"), 4000);
        assert_eq!(snap.get(&[("tenant", "odd")]).unwrap().counter("n"), 4000);
    }
}
