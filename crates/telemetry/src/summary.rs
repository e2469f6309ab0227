//! End-of-run aggregation of a recorded event stream.
//!
//! [`Summary::from_events`] folds the span events collected by a
//! [`crate::MemorySink`] into one row per span name: call count, total
//! inclusive time, and total *self* time (inclusive minus the inclusive
//! time of direct children — the share actually spent at that level).
//! [`Summary::render`] formats the rows as a fixed-width text table for
//! the bench bins' end-of-run report.

use crate::event::Event;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Aggregate timing for one span name.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct SpanRow {
    /// Span name.
    pub name: String,
    /// Number of spans closed under this name.
    pub count: u64,
    /// Total inclusive duration, microseconds.
    pub total_us: u64,
    /// Total self (exclusive) duration, microseconds. Children that ran
    /// concurrently with their parent can push a row's self time to 0 but
    /// never below it.
    pub self_us: u64,
    /// Largest single inclusive duration, microseconds.
    pub max_us: u64,
}

impl SpanRow {
    /// Mean inclusive duration in microseconds (0 when empty).
    pub(crate) fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_us as f64 / self.count as f64
        }
    }
}

/// Per-name span aggregates for one run, sorted by total time descending.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Summary {
    /// One row per span name, heaviest first.
    pub spans: Vec<SpanRow>,
}

impl Summary {
    /// Aggregate the span events in `events` (count events are ignored).
    pub fn from_events(events: &[Event]) -> Summary {
        // Pass 1: inclusive time charged to each span id's parent, so
        // pass 2 can subtract children without materialising the tree.
        let mut child_us: HashMap<u64, u64> = HashMap::new();
        for span in events.iter().filter_map(|e| e.as_span()) {
            if span.parent != 0 {
                *child_us.entry(span.parent).or_insert(0) += span.dur_us;
            }
        }
        let mut rows: HashMap<&str, SpanRow> = HashMap::new();
        for span in events.iter().filter_map(|e| e.as_span()) {
            let row = rows.entry(span.name.as_str()).or_insert_with(|| SpanRow {
                name: span.name.clone(),
                ..SpanRow::default()
            });
            row.count += 1;
            row.total_us += span.dur_us;
            row.max_us = row.max_us.max(span.dur_us);
            let children = child_us.get(&span.id).copied().unwrap_or(0);
            row.self_us += span.dur_us.saturating_sub(children);
        }
        let mut spans: Vec<SpanRow> = rows.into_values().collect();
        spans.sort_by(|a, b| b.total_us.cmp(&a.total_us).then(a.name.cmp(&b.name)));
        Summary { spans }
    }

    /// Row for `name`, if any span closed under it.
    pub fn row(&self, name: &str) -> Option<&SpanRow> {
        self.spans.iter().find(|r| r.name == name)
    }

    /// Render as a fixed-width text table (empty string when no spans).
    pub fn render(&self) -> String {
        if self.spans.is_empty() {
            return String::new();
        }
        let name_w = self
            .spans
            .iter()
            .map(|r| r.name.len())
            .max()
            .unwrap_or(4)
            .max("span".len());
        let mut out = String::new();
        out.push_str(&format!(
            "{:<name_w$}  {:>8}  {:>12}  {:>12}  {:>10}  {:>10}\n",
            "span", "count", "total_ms", "self_ms", "mean_us", "max_us"
        ));
        for r in &self.spans {
            out.push_str(&format!(
                "{:<name_w$}  {:>8}  {:>12.3}  {:>12.3}  {:>10.1}  {:>10}\n",
                r.name,
                r.count,
                r.total_us as f64 / 1e3,
                r.self_us as f64 / 1e3,
                r.mean_us(),
                r.max_us
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::SpanEvent;

    fn span(name: &str, id: u64, parent: u64, dur_us: u64) -> Event {
        Event::Span(SpanEvent {
            name: name.into(),
            id,
            parent,
            start_us: 0,
            dur_us,
            fields: Vec::new(),
        })
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        let events = vec![
            span("child", 2, 1, 30),
            span("child", 3, 1, 20),
            span("grandchild", 4, 2, 10),
            span("root", 1, 0, 100),
        ];
        let s = Summary::from_events(&events);
        let root = s.row("root").unwrap();
        assert_eq!(root.count, 1);
        assert_eq!(root.total_us, 100);
        assert_eq!(root.self_us, 50); // 100 - (30 + 20); grandchild charges child, not root
        let child = s.row("child").unwrap();
        assert_eq!(child.total_us, 50);
        assert_eq!(child.self_us, 40); // 50 - 10
        assert_eq!(child.max_us, 30);
    }

    #[test]
    fn concurrent_children_saturate_at_zero() {
        // Parallel children's summed time can exceed the parent's wall time.
        let events = vec![
            span("task", 2, 1, 80),
            span("task", 3, 1, 90),
            span("map", 1, 0, 100),
        ];
        let s = Summary::from_events(&events);
        assert_eq!(s.row("map").unwrap().self_us, 0);
    }

    #[test]
    fn rows_sorted_heaviest_first_and_render_is_stable() {
        let events = vec![span("small", 1, 0, 5), span("big", 2, 0, 500)];
        let s = Summary::from_events(&events);
        assert_eq!(s.spans[0].name, "big");
        let text = s.render();
        assert!(text.starts_with("span"));
        assert_eq!(text.lines().count(), 3);
        assert!(Summary::default().render().is_empty());
    }
}
