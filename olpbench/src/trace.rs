//! Spans around the benchmark's calls into each layer.
//!
//! A span is a name (`layer.call`), a start and end, the span that
//! caused it and the operation it belongs to. Spans are kept in memory
//! and written as JSON lines when the run ends; a layer's self time is
//! its spans' durations minus the parts their child spans cover. The
//! recorder is off in the end-to-end run, and in the traced run every
//! other operation is left untraced so the two halves give the tracing
//! overhead.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.call`, e.g. `ground.ground`.
    pub name: &'static str,
    /// Start, relative to the recorder's origin.
    pub start: Duration,
    /// End, relative to the recorder's origin.
    pub end: Duration,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The operation this span belongs to.
    pub op: u64,
}

impl Span {
    fn dur(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// Handle of an open span; closing a handle from a disabled recorder
/// does nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(Option<usize>);

/// The in-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder; `on = false` makes every call a no-op.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Opens a span inside the innermost open one.
    pub fn begin(&mut self, name: &'static str, op: u64) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let at = self.origin.elapsed();
        self.spans.push(Span {
            name,
            start: at,
            end: at,
            parent: self.open.last().copied(),
            op,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Closes `id` and every span opened inside it and still open.
    pub fn end(&mut self, id: SpanId) {
        let Some(ix) = id.0 else { return };
        let at = self.origin.elapsed();
        while let Some(top) = self.open.pop() {
            self.spans[top].end = at;
            if top == ix {
                break;
            }
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, op);
        let out = f();
        self.end(id);
        out
    }

    /// Records a span timed by the caller (an open-loop request runs
    /// from its scheduled send to its response).
    pub fn record(&mut self, name: &'static str, op: u64, start: Instant, end: Instant) {
        if self.on {
            self.spans.push(Span {
                name,
                start: start.saturating_duration_since(self.origin),
                end: end.saturating_duration_since(self.origin),
                parent: None,
                op,
            });
        }
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, indexed like [`Tracer::spans`].
    pub fn self_times(&self) -> Vec<Duration> {
        let mut own: Vec<Duration> = self.spans.iter().map(Span::dur).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.dur());
            }
        }
        own
    }

    /// Self time in ms summed per span name over the spans `keep`
    /// selects.
    pub fn self_ms_by_name(&self, keep: impl Fn(&Span) -> bool) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_times()) {
            if keep(s) {
                *out.entry(s.name).or_insert(0.0) += ms(own);
            }
        }
        out
    }

    /// The per-name table printed after a traced run: count, total and
    /// self time.
    pub fn summary(&self) -> String {
        let mut rows: BTreeMap<&str, (u64, f64, f64)> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_times()) {
            let r = rows.entry(s.name).or_default();
            r.0 += 1;
            r.1 += ms(s.dur());
            r.2 += ms(own);
        }
        let mut out = format!(
            "{:<24} {:>8} {:>12} {:>12} {:>10}\n",
            "span", "count", "total_ms", "self_ms", "self/call"
        );
        for (name, (n, total, own)) in rows {
            out.push_str(&format!(
                "{name:<24} {n:>8} {total:>12.3} {own:>12.3} {:>10.4}\n",
                own / n as f64
            ));
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut w = io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{id},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{parent},\"op\":{}}}",
                s.name,
                s.start.as_secs_f64() * 1e6,
                s.end.as_secs_f64() * 1e6,
                s.op
            )?;
        }
        w.flush()
    }
}

/// A duration in milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        let op = t.begin("op", 7);
        t.time("ground.ground", 7, || {
            std::thread::sleep(Duration::from_millis(3))
        });
        t.time("semantics.least", 7, || {
            std::thread::sleep(Duration::from_millis(2))
        });
        t.end(op);
        let own = t.self_times();
        assert_eq!(t.spans().len(), 3);
        assert_eq!(t.spans()[1].parent, Some(0));
        let total = t.spans()[0].dur();
        assert_eq!(own[0] + own[1] + own[2], total);
        assert!(own[0] < Duration::from_millis(2));
        let by = t.self_ms_by_name(|s| s.op == 7);
        assert!(by["ground.ground"] >= 3.0);
        assert!(t.summary().contains("semantics.least"));
    }

    #[test]
    fn a_disabled_recorder_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("op", 0);
        t.time("kb.render", 0, || ());
        t.end(id);
        t.record("server.truth", 0, Instant::now(), Instant::now());
        assert!(t.spans().is_empty());
    }

    #[test]
    fn jsonl_has_one_line_per_span() {
        let mut t = Tracer::new(true);
        let op = t.begin("op", 1);
        t.time("kb.render", 1, || ());
        t.end(op);
        let path = crate::work_dir()
            .unwrap()
            .join("jsonl_has_one_line_per_span.jsonl");
        t.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[1].contains("\"name\":\"kb.render\"") && lines[1].contains("\"parent\":0"));
    }
}
