//! Event sinks and the global sink slot.
//!
//! Telemetry is off by default: the global slot is empty, [`enabled`]
//! reads one relaxed atomic, and every instrumentation macro/function
//! bails out before touching the clock. [`install`]ing a sink flips the
//! flag; [`uninstall`] flips it back and returns the sink so callers can
//! drain or flush it.

use crate::event::Event;
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// Receives every telemetry event while installed.
pub trait Sink: Send + Sync {
    /// Record one event. Called from arbitrary threads.
    fn record(&self, event: &Event);
    /// Flush buffered output (default: no-op).
    fn flush(&self) {}
}

/// Collects events in memory; the end-of-run summary is aggregated from
/// its contents.
#[derive(Debug, Default)]
pub struct MemorySink {
    events: Mutex<Vec<Event>>,
}

impl MemorySink {
    /// New empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Copy of everything recorded so far.
    pub fn events(&self) -> Vec<Event> {
        crate::recover(self.events.lock()).clone()
    }

    /// Drain, leaving the sink empty.
    pub fn take(&self) -> Vec<Event> {
        std::mem::take(&mut *crate::recover(self.events.lock()))
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        crate::recover(self.events.lock()).len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Sink for MemorySink {
    fn record(&self, event: &Event) {
        crate::recover(self.events.lock()).push(event.clone());
    }
}

/// Streams events as JSON lines to a writer (typically a file opened by
/// a bench bin's `--trace-out` flag, or a live per-job progress feed).
///
/// Every event is flushed through to the underlying writer as soon as
/// its line is written, so consumers tailing the feed see events
/// immediately instead of whenever an OS-sized buffer happens to fill.
pub struct JsonLinesSink {
    out: Mutex<Box<dyn Write + Send>>,
}

impl JsonLinesSink {
    /// Create (truncate) `path` and stream events to it.
    pub fn create(path: &std::path::Path) -> std::io::Result<JsonLinesSink> {
        let file = std::fs::File::create(path)?;
        Ok(Self::new(Box::new(std::io::BufWriter::new(file))))
    }

    /// Stream events to an arbitrary writer, flushing after every event.
    pub fn new(out: Box<dyn Write + Send>) -> JsonLinesSink {
        JsonLinesSink {
            out: Mutex::new(out),
        }
    }
}

impl Sink for JsonLinesSink {
    fn record(&self, event: &Event) {
        let line = event.to_json();
        let mut out = crate::recover(self.out.lock());
        // Trace output is best-effort: losing a line (disk full) must not
        // poison the run being traced.
        let _ = writeln!(out, "{line}");
        let _ = out.flush();
    }

    fn flush(&self) {
        let _ = crate::recover(self.out.lock()).flush();
    }
}

/// Broadcasts every event to several sinks (e.g. memory + trace file).
pub struct FanoutSink(pub Vec<Arc<dyn Sink>>);

impl Sink for FanoutSink {
    fn record(&self, event: &Event) {
        for sink in &self.0 {
            sink.record(event);
        }
    }

    fn flush(&self) {
        for sink in &self.0 {
            sink.flush();
        }
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static SINK: RwLock<Option<Arc<dyn Sink>>> = RwLock::new(None);

/// True when a sink is installed. The *only* check on the disabled hot
/// path — one relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Install `sink` as the process-global event sink and enable telemetry.
/// Replaces (and returns) any previously installed sink.
pub fn install(sink: Arc<dyn Sink>) -> Option<Arc<dyn Sink>> {
    let prev = crate::recover(SINK.write()).replace(sink);
    ENABLED.store(true, Ordering::SeqCst);
    prev
}

/// Disable telemetry and return the previously installed sink (if any).
pub fn uninstall() -> Option<Arc<dyn Sink>> {
    ENABLED.store(false, Ordering::SeqCst);
    crate::recover(SINK.write()).take()
}

/// Emit one event to the installed sink (no-op when disabled).
pub fn emit(event: &Event) {
    if !enabled() {
        return;
    }
    if let Some(sink) = crate::recover(SINK.read()).as_ref() {
        sink.record(event);
    }
}

/// Flush the installed sink's buffered output.
pub fn flush() {
    if let Some(sink) = crate::recover(SINK.read()).as_ref() {
        sink.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::CountEvent;

    fn count(name: &str, value: u64) -> Event {
        Event::Count(CountEvent {
            name: name.into(),
            value,
        })
    }

    #[test]
    fn memory_sink_collects_and_drains() {
        let sink = MemorySink::new();
        assert!(sink.is_empty());
        sink.record(&count("a", 1));
        sink.record(&count("b", 2));
        assert_eq!(sink.len(), 2);
        assert_eq!(sink.take().len(), 2);
        assert!(sink.is_empty());
    }

    #[test]
    fn json_lines_sink_writes_one_line_per_event() {
        let buf: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(data);
                Ok(data.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let sink = JsonLinesSink::new(Box::new(Shared(Arc::clone(&buf))));
        sink.record(&count("x", 1));
        sink.record(&count("y", 2));
        sink.flush();
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(Event::from_json(lines[0]).unwrap(), count("x", 1));
        assert_eq!(Event::from_json(lines[1]).unwrap(), count("y", 2));
    }

    #[test]
    fn json_lines_sink_flushes_every_event() {
        use std::sync::atomic::AtomicUsize;
        struct FlushCounter(Arc<AtomicUsize>);
        impl Write for FlushCounter {
            fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
                Ok(data.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                self.0.fetch_add(1, Ordering::SeqCst);
                Ok(())
            }
        }
        let flushes = Arc::new(AtomicUsize::new(0));
        let sink = JsonLinesSink::new(Box::new(FlushCounter(Arc::clone(&flushes))));
        sink.record(&count("a", 1));
        sink.record(&count("b", 2));
        assert_eq!(flushes.load(Ordering::SeqCst), 2, "per-event flushing");
        sink.flush();
        assert_eq!(flushes.load(Ordering::SeqCst), 3, "explicit flush");
    }

    #[test]
    fn fanout_broadcasts() {
        let a = Arc::new(MemorySink::new());
        let b = Arc::new(MemorySink::new());
        let fan = FanoutSink(vec![a.clone(), b.clone()]);
        fan.record(&count("c", 3));
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 1);
    }
}
