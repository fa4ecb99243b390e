//! Spans recorded from outside the program: each one wraps a call into a
//! layer's public API, carries the op it belongs to and the span that
//! caused it, and lives in memory until the run writes the span file.
//!
//! A span's *self time* is its duration minus the time its direct
//! children cover; children never overlap because each recorder belongs
//! to one thread, which makes its calls one after another.

use std::io::Write;
use std::time::Instant;

use crate::clock;

/// One recorded call.
pub struct Span {
    /// `<layer>.<call>`, e.g. `batch.build`; op spans are `op.<role>`.
    pub name: &'static str,
    /// The op (one unit of benchmark work) the call belongs to.
    pub op: u64,
    /// Recording thread.
    pub thread: u32,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    /// Milliseconds since the run's epoch.
    pub start_ms: f64,
    pub end_ms: f64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        self.end_ms - self.start_ms
    }
}

/// A per-thread span recorder. When off, every method is a no-op and
/// [`Recorder::time`] just calls its closure.
pub struct Recorder {
    on: bool,
    epoch: Instant,
    thread: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(on: bool, epoch: Instant, thread: u32) -> Self {
        Recorder {
            on,
            epoch,
            thread,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// An empty recorder for another thread, on the same epoch.
    pub fn fork(&self, thread: u32) -> Recorder {
        Recorder::new(self.on, self.epoch, thread)
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, op: u64) -> Option<usize> {
        if !self.on {
            return None;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            op,
            thread: self.thread,
            parent: self.open.last().copied(),
            start_ms: clock::ms_between(self.epoch, clock::now()),
            end_ms: f64::NAN,
        });
        self.open.push(id);
        Some(id)
    }

    /// Closes the span `begin` opened.
    pub fn end(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            self.spans[id].end_ms = clock::ms_between(self.epoch, clock::now());
            let top = self.open.pop();
            debug_assert_eq!(top, Some(id), "spans must close innermost first");
        }
    }

    /// Runs `f` inside a span.
    pub fn time<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, op);
        let r = f();
        self.end(id);
        r
    }

    /// Appends another thread's spans.
    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Durations (ms) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Time (ms) each span's direct children cover.
    fn child_ms(&self) -> Vec<f64> {
        let mut covered = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.ms();
            }
        }
        covered
    }

    /// For every span called `name`, the share of it its direct children
    /// cover.
    pub fn coverage(&self, name: &str) -> Vec<f64> {
        let covered = self.child_ms();
        self.spans
            .iter()
            .zip(&covered)
            .filter(|(s, _)| s.name == name && s.ms() > 0.0)
            .map(|(s, c)| c / s.ms())
            .collect()
    }

    /// Writes the spans as a Chrome trace-event file (viewable in
    /// `chrome://tracing` or Perfetto), with op, parent and self time in
    /// each event's `args`.
    pub fn write_chrome(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let covered = self.child_ms();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{\"displayTimeUnit\": \"ms\", \"traceEvents\": [")?;
        for (i, (s, c)) in self.spans.iter().zip(&covered).enumerate() {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\": \"{}\", \"cat\": \"{layer}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \
                 \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"id\": {i}, \"op\": {}, \
                 \"parent\": {parent}, \"self_us\": {:.3}}}}}{}",
                s.name,
                s.thread,
                s.start_ms * 1e3,
                s.ms() * 1e3,
                s.op,
                (s.ms() - c) * 1e3,
                if i + 1 == self.spans.len() { "" } else { "," },
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}
