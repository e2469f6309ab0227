//! The wire format of the JSON-lines event stream.
//!
//! One [`Event`] per line, externally tagged (`{"Span": {...}}`), written
//! by [`crate::JsonLinesSink`] and re-readable with [`Event::from_json`] —
//! the round trip is exact for every field.

use serde::{Deserialize, Serialize};

/// A closed span: name, identity, parentage, and monotonic-clock timing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanEvent {
    /// Span name (static instrumentation-site label).
    pub name: String,
    /// Process-unique span id (never 0).
    pub id: u64,
    /// Parent span id; 0 = root (no enclosing span).
    pub parent: u64,
    /// Start offset in microseconds since the process telemetry epoch.
    pub start_us: u64,
    /// Wall-clock duration in microseconds (monotonic clock).
    pub dur_us: u64,
    /// Optional numeric attributes attached at the instrumentation site.
    pub fields: Vec<(String, f64)>,
}

/// A counter observation (emitted at end-of-run so trace files are
/// self-contained; live increments stay in the metrics registry).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CountEvent {
    /// Counter name.
    pub name: String,
    /// Counter value at emission time.
    pub value: u64,
}

/// One telemetry event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Event {
    /// A closed span.
    Span(SpanEvent),
    /// A counter total.
    Count(CountEvent),
}

impl Event {
    /// Serialise to one JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        // Invariant: an event is strings, integers, floats and lists — no
        // map with non-string keys, no custom serialiser — and serde_json
        // writes every such value.
        #[allow(clippy::expect_used)]
        serde_json::to_string(self).expect("telemetry events always serialise")
    }

    /// Parse an event back from a JSON line.
    pub fn from_json(line: &str) -> Result<Event, serde_json::Error> {
        serde_json::from_str(line)
    }

    /// The span payload, when this is a span event.
    pub fn as_span(&self) -> Option<&SpanEvent> {
        match self {
            Event::Span(s) => Some(s),
            Event::Count(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_event_round_trips() {
        let e = Event::Span(SpanEvent {
            name: "engine.evaluate".into(),
            id: 7,
            parent: 3,
            start_us: 1234,
            dur_us: 567,
            fields: vec![("epoch".into(), 2.0), ("reward".into(), -0.25)],
        });
        let line = e.to_json();
        assert!(!line.contains('\n'), "one event must be one line");
        assert_eq!(Event::from_json(&line).unwrap(), e);
    }

    #[test]
    fn count_event_round_trips() {
        let e = Event::Count(CountEvent {
            name: "fpe.gate.accept".into(),
            value: u64::MAX - 1,
        });
        assert_eq!(Event::from_json(&e.to_json()).unwrap(), e);
    }

    #[test]
    fn malformed_line_is_an_error() {
        assert!(Event::from_json("{not json").is_err());
        assert!(Event::from_json("{\"Other\": 1}").is_err());
    }
}
