//! Benchmark-owned spans: one record per call into a public entry point of
//! the program, kept in memory and written out when the child exits. The
//! driver is single-threaded, so the open-span stack is the parent chain.

use std::io::Write;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    /// Microseconds since the recorder's origin.
    pub start_us: f64,
    pub end_us: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_us - self.start_us) / 1e6
    }
}

/// Handle returned by [`Recorder::enter`]; pass it back to `exit`.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(usize);

impl SpanId {
    /// Position of the span in [`Recorder::spans`].
    pub fn index(self) -> usize {
        self.0
    }
}

/// In-memory span log for one run (one child process = one run id).
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    run: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(run: u64) -> Self {
        Recorder {
            origin: Instant::now(),
            run,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &str) -> SpanId {
        let now = self.now_us();
        self.spans.push(Span {
            name: name.to_string(),
            start_us: now,
            end_us: now,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
        SpanId(self.spans.len() - 1)
    }

    /// Close `id` (and, defensively, anything opened inside it that was
    /// left open). Returns the span's duration in seconds.
    pub fn exit(&mut self, id: SpanId) -> f64 {
        let now = self.now_us();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_us = now;
            if top == id.0 {
                break;
            }
        }
        self.spans[id.0].secs()
    }

    /// Close `id` under a name only known once the call returned (a search
    /// step learns its stage from the report it produced).
    pub fn exit_as(&mut self, id: SpanId, name: &str) -> f64 {
        self.spans[id.0].name = name.to_string();
        self.exit(id)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total seconds of every span called `name`.
    pub fn total_secs(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            // Not `sum()`: an empty float sum is -0.0.
            .fold(0.0, |total, s| total + s.secs())
    }

    /// Append the log as JSON lines (`run`, `id`, `parent`, `name`,
    /// `start_us`, `end_us`, `self_us`).
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        let selfs = self_times_us(&self.spans);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"run\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_us\":{:.1},\"end_us\":{:.1},\"self_us\":{:.1}}}",
                self.run, i, parent, s.name, s.start_us, s.end_us, selfs[i]
            )?;
        }
        Ok(())
    }
}

/// Self time of each span: its duration minus the part of that interval
/// its direct children cover (children of one parent never overlap here,
/// so their durations simply add up).
pub fn self_times_us(spans: &[Span]) -> Vec<f64> {
    let mut selfs: Vec<f64> = spans.iter().map(|s| s.end_us - s.start_us).collect();
    for s in spans {
        if let Some(p) = s.parent {
            selfs[p] -= s.end_us - s.start_us;
        }
    }
    selfs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_us: start,
            end_us: end,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("root", 0.0, 100.0, None),
            span("a", 10.0, 40.0, Some(0)),
            span("a.inner", 15.0, 25.0, Some(1)),
            span("b", 50.0, 90.0, Some(0)),
        ];
        assert_eq!(self_times_us(&spans), vec![30.0, 20.0, 10.0, 40.0]);
        // Self times of a tree add up to the root's duration.
        assert_eq!(self_times_us(&spans).iter().sum::<f64>(), 100.0);
    }

    #[test]
    fn recorder_tracks_parents_and_totals() {
        let mut rec = Recorder::new(7);
        let outer = rec.enter("outer");
        let a = rec.enter("step");
        rec.exit_as(a, "stage1");
        let b = rec.enter("step");
        rec.exit_as(b, "stage1");
        rec.exit(outer);
        let top = rec.enter("after");
        rec.exit(top);
        let s = rec.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert_eq!(s[3].parent, None);
        assert!(rec.total_secs("outer") >= rec.total_secs("stage1"));
        let mut buf = Vec::new();
        rec.write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 4);
        assert!(text.lines().all(|l| l.starts_with("{\"run\":7,")));
    }

    #[test]
    fn exit_closes_forgotten_inner_spans() {
        let mut rec = Recorder::new(0);
        let outer = rec.enter("outer");
        let _leaked = rec.enter("inner");
        rec.exit(outer);
        let next = rec.enter("next");
        rec.exit(next);
        assert_eq!(rec.spans()[2].parent, None);
    }
}
