//! Offline analysis of `--trace-out` JSON-lines files.
//!
//! A trace file is one [`telemetry::Event`] per line: closed spans with
//! parentage (`Span`) and end-of-run counter totals (`Count`). This
//! module loads such a file into a [`Trace`] and derives four reports:
//!
//! - [`Trace::folded`] — collapsed-stack flamegraph output (the folded
//!   format consumed by `inferno-flamegraph` and speedscope): one line
//!   per distinct span stack, weighted by *self* time (span duration
//!   minus the duration of its direct children);
//! - [`Trace::critical_path`] — the heaviest root-to-leaf chain through
//!   the span tree, with each hop's share of its parent's time;
//! - [`Trace::attribution`] — self-time totals grouped by a span field
//!   (default `job`), inherited through the parent chain so leaf work
//!   is attributed to the tenant/job/route that enclosed it;
//! - [`Trace::cache_report`] — hit rates per cache family, reassembled
//!   from the counter totals the bench harness appends at end-of-run.
//!
//! Every report is a deterministic function of the trace bytes: ties
//! break on span ids and output maps are sorted, so golden tests can
//! compare exact strings.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use telemetry::{Event, SpanEvent};

/// Walks at most this many ancestors before declaring a parent cycle —
/// far beyond any real instrumentation depth.
const MAX_DEPTH: usize = 128;

/// A parsed trace: spans in file order plus the final value of every
/// counter that appeared (last write wins, matching counter-total
/// semantics).
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Closed spans, in the order the file recorded them.
    pub spans: Vec<SpanEvent>,
    /// Counter name → final value.
    pub counts: BTreeMap<String, u64>,
}

impl Trace {
    /// Parse a trace from the contents of a JSON-lines file. Blank lines
    /// are skipped; a malformed line is an error naming its line number.
    pub fn parse(text: &str) -> Result<Trace, String> {
        let mut trace = Trace::default();
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            match Event::from_json(line) {
                Ok(Event::Span(s)) => trace.spans.push(s),
                Ok(Event::Count(c)) => {
                    trace.counts.insert(c.name, c.value);
                }
                Err(e) => return Err(format!("line {}: {e}", i + 1)),
            }
        }
        Ok(trace)
    }

    /// Load a trace file from disk.
    pub fn from_path(path: &Path) -> Result<Trace, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        Trace::parse(&text)
    }

    /// Merge per-process traces (e.g. a distributed coordinator's file
    /// plus each worker's) into one analyzable trace. File `p`'s spans
    /// gain a `process = p` field — so `attribution("process")` splits
    /// time per process — and their ids are re-based past every id of
    /// the preceding files, keeping parent chains intact while ids that
    /// collide across processes stay distinct. Counter totals sum, since
    /// each process counted its own share of the run's work.
    pub fn merged(traces: Vec<Trace>) -> Trace {
        let mut out = Trace::default();
        let mut offset: u64 = 0;
        for (p, trace) in traces.into_iter().enumerate() {
            let mut max_id = 0u64;
            for mut s in trace.spans {
                max_id = max_id.max(s.id);
                s.id += offset;
                if s.parent != 0 {
                    s.parent += offset;
                }
                s.fields.push(("process".to_string(), p as f64));
                out.spans.push(s);
            }
            offset += max_id;
            for (name, value) in trace.counts {
                *out.counts.entry(name).or_insert(0) += value;
            }
        }
        out
    }

    /// Index from span id to position, keeping the *first* occurrence
    /// when ids collide (synthetic ids in mixed streams).
    fn index(&self) -> HashMap<u64, usize> {
        let mut map = HashMap::with_capacity(self.spans.len());
        for (i, s) in self.spans.iter().enumerate() {
            map.entry(s.id).or_insert(i);
        }
        map
    }

    /// Self time per span: duration minus the summed duration of direct
    /// children (saturating — clock skew can make children overrun).
    fn self_us(&self, index: &HashMap<u64, usize>) -> Vec<u64> {
        let mut child_sum = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != 0 {
                if let Some(&p) = index.get(&s.parent) {
                    child_sum[p] = child_sum[p].saturating_add(s.dur_us);
                }
            }
        }
        self.spans
            .iter()
            .zip(&child_sum)
            .map(|(s, &c)| s.dur_us.saturating_sub(c))
            .collect()
    }

    /// Ancestor chain of span `i` (nearest first), stopping at roots,
    /// unknown parents, cycles, or [`MAX_DEPTH`].
    fn ancestors(&self, index: &HashMap<u64, usize>, i: usize) -> Vec<usize> {
        let mut chain = Vec::new();
        let mut cur = self.spans[i].parent;
        while cur != 0 && chain.len() < MAX_DEPTH {
            match index.get(&cur) {
                Some(&p) if !chain.contains(&p) && p != i => {
                    chain.push(p);
                    cur = self.spans[p].parent;
                }
                _ => break,
            }
        }
        chain
    }

    /// Collapsed-stack (folded) flamegraph output: one line per distinct
    /// root-to-span stack, `root;child;leaf <self_us>`, weighted by self
    /// time in microseconds and sorted by stack. Zero-weight stacks are
    /// omitted. Feed this to `inferno-flamegraph` or import into
    /// speedscope.
    pub fn folded(&self) -> String {
        let index = self.index();
        let self_us = self.self_us(&index);
        let mut stacks: BTreeMap<String, u64> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if self_us[i] == 0 {
                continue;
            }
            let mut names: Vec<&str> = self
                .ancestors(&index, i)
                .into_iter()
                .map(|p| self.spans[p].name.as_str())
                .collect();
            names.reverse();
            names.push(&s.name);
            let stack = names.join(";");
            *stacks.entry(stack).or_insert(0) += self_us[i];
        }
        let mut out = String::new();
        for (stack, us) in &stacks {
            out.push_str(stack);
            out.push(' ');
            out.push_str(&us.to_string());
            out.push('\n');
        }
        out
    }

    /// The critical path: starting from the longest root span, descend
    /// into the longest direct child at every level. Each line shows the
    /// span's duration, self time, and share of its parent.
    pub fn critical_path(&self) -> String {
        let index = self.index();
        let self_us = self.self_us(&index);
        // Direct children of each span position (file order).
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        let mut roots: Vec<usize> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            match index.get(&s.parent) {
                Some(&p) if s.parent != 0 && p != i => children[p].push(i),
                _ => roots.push(i),
            }
        }
        // Heaviest span wins; ties break on (start, id) for determinism.
        let weight = |&i: &usize| {
            let s = &self.spans[i];
            (
                s.dur_us,
                std::cmp::Reverse(s.start_us),
                std::cmp::Reverse(s.id),
            )
        };
        let mut out = String::from("critical path (heaviest chain):\n");
        let Some(mut cur) = roots.iter().max_by_key(|i| weight(i)).copied() else {
            out.push_str("  (no spans)\n");
            return out;
        };
        let mut parent_dur: Option<u64> = None;
        let mut depth = 0;
        loop {
            let s = &self.spans[cur];
            let share = match parent_dur {
                Some(p) if p > 0 => {
                    format!("{:5.1}% of parent", 100.0 * s.dur_us as f64 / p as f64)
                }
                _ => "root".to_string(),
            };
            out.push_str(&format!(
                "  {:indent$}{}  total {} us, self {} us  [{share}]\n",
                "",
                s.name,
                s.dur_us,
                self_us[cur],
                indent = depth * 2,
            ));
            parent_dur = Some(s.dur_us);
            match children[cur].iter().max_by_key(|i| weight(i)).copied() {
                Some(next) if depth < MAX_DEPTH => {
                    cur = next;
                    depth += 1;
                }
                _ => break,
            }
        }
        out
    }

    /// Effective value of field `key` for span `i`: the span's own field
    /// if present, else the nearest ancestor's.
    fn field_value(&self, index: &HashMap<u64, usize>, i: usize, key: &str) -> Option<f64> {
        let own = |p: usize| {
            self.spans[p]
                .fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|&(_, v)| v)
        };
        own(i).or_else(|| self.ancestors(index, i).into_iter().find_map(own))
    }

    /// Self-time attribution by span field `key` (e.g. `job`, `epoch`):
    /// spans inherit the nearest ancestor's value, so leaf work counts
    /// toward the job/tenant/route that enclosed it. Spans with no value
    /// anywhere in their chain land in `(unattributed)`. Sorted by
    /// descending time, then label.
    pub fn attribution(&self, key: &str) -> String {
        let index = self.index();
        let self_us = self.self_us(&index);
        let mut totals: BTreeMap<String, u64> = BTreeMap::new();
        let mut grand = 0u64;
        for (i, &us) in self_us.iter().enumerate() {
            let label = match self.field_value(&index, i, key) {
                Some(v) if v.fract() == 0.0 && v.abs() < 1e15 => format!("{key}={}", v as i64),
                Some(v) => format!("{key}={v}"),
                None => "(unattributed)".to_string(),
            };
            *totals.entry(label).or_insert(0) += us;
            grand += us;
        }
        let mut rows: Vec<(&String, &u64)> = totals.iter().collect();
        rows.sort_by(|a, b| b.1.cmp(a.1).then_with(|| a.0.cmp(b.0)));
        let mut out = format!("time attribution by `{key}` ({grand} us total):\n");
        for (label, us) in rows {
            let pct = if grand > 0 {
                100.0 * *us as f64 / grand as f64
            } else {
                0.0
            };
            out.push_str(&format!("  {label:<24} {us:>12} us  {pct:5.1}%\n"));
        }
        out
    }

    /// Cache efficiency from the trace's counter totals. Counters named
    /// `<family>.hits` / `.misses` / `.inserts` / `.evictions` / `.len`
    /// form a family. The evaluator's
    /// `evaluator.cache_hits` / `evaluator.evals_computed` pair and
    /// MinHash's `minhash.sig_cache_hits` are reported as-is when present.
    pub fn cache_report(&self) -> String {
        #[derive(Default)]
        struct Family {
            hits: u64,
            misses: u64,
            inserts: u64,
            evictions: u64,
            len: u64,
        }
        let mut families: BTreeMap<String, Family> = BTreeMap::new();
        for (name, &value) in &self.counts {
            let Some((prefix, stat)) = name.rsplit_once('.') else {
                continue;
            };
            if !matches!(stat, "hits" | "misses" | "inserts" | "evictions" | "len") {
                continue;
            }
            let f = families.entry(prefix.to_string()).or_default();
            match stat {
                "hits" => f.hits += value,
                "misses" => f.misses += value,
                "inserts" => f.inserts += value,
                "evictions" => f.evictions += value,
                _ => f.len += value,
            }
        }
        // The evaluator's pair is hits/misses under other names: every
        // eval actually computed was a score-cache miss at the
        // evaluator's level.
        if let (Some(&h), Some(&m)) = (
            self.counts.get("evaluator.cache_hits"),
            self.counts.get("evaluator.evals_computed"),
        ) {
            families.insert(
                "evaluator".to_string(),
                Family {
                    hits: h,
                    misses: m,
                    ..Family::default()
                },
            );
        }
        let mut out = String::from("cache efficiency:\n");
        if families.is_empty() {
            out.push_str("  (no cache counters in trace)\n");
        }
        for (name, f) in &families {
            let total = f.hits + f.misses;
            let rate = if total > 0 {
                100.0 * f.hits as f64 / total as f64
            } else {
                0.0
            };
            out.push_str(&format!(
                "  {name:<16} {:>10} hits {:>10} misses  {rate:5.1}% hit rate  \
                 {} inserts, {} evictions, {} live\n",
                f.hits, f.misses, f.inserts, f.evictions, f.len,
            ));
        }
        if let Some(v) = self.counts.get("minhash.sig_cache_hits") {
            out.push_str(&format!("  {:<16} {v:>10} hits\n", "sig_cache"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use telemetry::CountEvent;

    fn span(
        name: &str,
        id: u64,
        parent: u64,
        start: u64,
        dur: u64,
        fields: &[(&str, f64)],
    ) -> String {
        Event::Span(SpanEvent {
            name: name.into(),
            id,
            parent,
            start_us: start,
            dur_us: dur,
            fields: fields.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
        })
        .to_json()
    }

    fn count(name: &str, value: u64) -> String {
        Event::Count(CountEvent {
            name: name.into(),
            value,
        })
        .to_json()
    }

    fn sample() -> Trace {
        // root(100) -> eval(60) -> fit(25); root self = 40, eval self = 35.
        let lines = [
            span("root", 1, 0, 0, 100, &[("job", 1.0)]),
            span("eval", 2, 1, 10, 60, &[]),
            span("fit", 3, 2, 15, 25, &[]),
            span("stray", 9, 0, 200, 5, &[]),
            count("score_cache.hits", 10),
            count("score_cache.misses", 10),
        ];
        Trace::parse(&lines.join("\n")).unwrap()
    }

    #[test]
    fn folded_stacks_weight_by_self_time() {
        let folded = sample().folded();
        assert_eq!(folded, "root 40\nroot;eval 35\nroot;eval;fit 25\nstray 5\n");
    }

    #[test]
    fn critical_path_descends_heaviest_children() {
        let report = sample().critical_path();
        assert!(report.contains("root  total 100 us, self 40 us  [root]"));
        assert!(report.contains("eval  total 60 us, self 35 us  [ 60.0% of parent]"));
        assert!(report.contains("fit  total 25 us, self 25 us  [ 41.7% of parent]"));
    }

    #[test]
    fn attribution_inherits_fields_through_the_chain() {
        let report = sample().attribution("job");
        // fit + eval + root self all inherit job=1 (100 us); stray has none.
        assert!(report.contains("job=1"), "{report}");
        assert!(report.contains("100 us"), "{report}");
        assert!(report.contains("(unattributed)"), "{report}");
    }

    #[test]
    fn cache_report_groups_counters_into_families() {
        let report = sample().cache_report();
        assert!(
            report.contains("score_cache") && report.contains("50.0% hit rate"),
            "{report}"
        );
    }

    #[test]
    fn merged_traces_tag_processes_rebase_ids_and_sum_counters() {
        // Two processes whose span ids collide (both use 1 and 2) and
        // whose counters overlap — the coordinator/worker trace shape.
        let coordinator = Trace::parse(
            &[
                span("run", 1, 0, 0, 100, &[]),
                span("dist.slice", 2, 1, 10, 30, &[]),
                count("evaluator.cache_hits", 40),
                count("dist.shards_dispatched", 6),
            ]
            .join("\n"),
        )
        .unwrap();
        let worker = Trace::parse(
            &[
                span("serve", 1, 0, 0, 80, &[]),
                span("dist.shard", 2, 1, 5, 60, &[]),
                count("evaluator.cache_hits", 10),
            ]
            .join("\n"),
        )
        .unwrap();
        let merged = Trace::merged(vec![coordinator, worker]);

        // Golden: folded stacks keep each process's parent chain intact.
        assert_eq!(
            merged.folded(),
            "run 70\nrun;dist.slice 30\nserve 20\nserve;dist.shard 60\n"
        );
        // Golden: per-process attribution covers every span, nothing
        // unattributed, ordered by descending self time.
        assert_eq!(
            merged.attribution("process"),
            "time attribution by `process` (180 us total):\n  \
             process=0                         100 us   55.6%\n  \
             process=1                          80 us   44.4%\n"
        );
        // Overlapping counters sum; singletons pass through.
        assert_eq!(merged.counts["evaluator.cache_hits"], 50);
        assert_eq!(merged.counts["dist.shards_dispatched"], 6);
        // Worker ids were re-based past the coordinator's (max id 2).
        assert_eq!(merged.spans[2].id, 3);
        assert_eq!(merged.spans[3].parent, 3);
    }

    #[test]
    fn malformed_lines_name_their_line_number() {
        let err = Trace::parse("{\"Span\"").unwrap_err();
        assert!(err.starts_with("line 1:"), "{err}");
    }

    #[test]
    fn empty_trace_reports_are_well_formed() {
        let t = Trace::parse("").unwrap();
        assert_eq!(t.folded(), "");
        assert!(t.critical_path().contains("(no spans)"));
        assert!(t.cache_report().contains("no cache counters"));
    }
}
