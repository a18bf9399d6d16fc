//! In-memory spans recorded from the benchmark's own files, around the
//! calls into each layer, and written out once when the run ends.
//! Spans inside the crates are a later change.

use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::json::quote;

/// One recorded interval. `parent` is the index of the enclosing span
/// in the written array.
#[derive(Clone, Debug)]
pub struct Span {
    /// What ran, e.g. `segment`, `op.write`, `wire.encode.update`.
    pub name: &'static str,
    /// Start, in nanoseconds since the sink was created.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The DSM process that made the call, for spans inside a body.
    pub proc: Option<u32>,
}

/// Every how many `LiveCtx` calls a body records one span.
pub const SAMPLE_EVERY: u32 = 64;

/// Where a traced run collects its spans.
pub struct SpanSink {
    epoch: Instant,
    workload: String,
    spans: Mutex<Vec<Span>>,
}

impl SpanSink {
    /// An empty sink for `workload`; its clock starts now.
    pub fn new(workload: &str) -> SpanSink {
        SpanSink { epoch: Instant::now(), workload: workload.into(), spans: Mutex::new(Vec::new()) }
    }

    /// Nanoseconds since the sink was created.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span now and returns its index; [`SpanSink::close`] ends it.
    pub fn open(&self, name: &'static str, parent: Option<usize>) -> usize {
        let now = self.now();
        let mut spans = self.spans.lock().expect("span sink healthy");
        spans.push(Span { name, start_ns: now, end_ns: now, parent, proc: None });
        spans.len() - 1
    }

    /// Ends span `idx` now.
    pub fn close(&self, idx: usize) {
        let now = self.now();
        self.spans.lock().expect("span sink healthy")[idx].end_ns = now;
    }

    /// Runs `f` inside a span named `name`.
    pub fn within<R>(&self, name: &'static str, parent: Option<usize>, f: impl FnOnce() -> R) -> R {
        let idx = self.open(name, parent);
        let r = f();
        self.close(idx);
        r
    }

    /// Durations (ns) of every span called `name` directly under `parent`.
    pub fn durations(&self, name: &str, parent: usize) -> Vec<u64> {
        let spans = self.spans.lock().expect("span sink healthy");
        spans
            .iter()
            .filter(|s| s.name == name && s.parent == Some(parent))
            .map(|s| s.end_ns - s.start_ns)
            .collect()
    }

    /// Writes all spans as one JSON array to `path`.
    ///
    /// # Errors
    ///
    /// Any I/O error creating or writing the file.
    pub fn write(&self, path: &Path) -> std::io::Result<usize> {
        let spans = self.spans.lock().expect("span sink healthy");
        let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "[")?;
        for (i, s) in spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"name\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"workload\":{},\"proc\":{}}}{}",
                quote(s.name),
                s.start_ns,
                s.end_ns,
                opt(s.parent.map(|p| p as u64)),
                quote(&self.workload),
                opt(s.proc.map(u64::from)),
                if i + 1 == spans.len() { "" } else { "," }
            )?;
        }
        writeln!(out, "]")?;
        out.flush()?;
        Ok(spans.len())
    }
}

/// A body's local span recorder: samples one call in [`SAMPLE_EVERY`]
/// when tracing, and is a single predictable branch when not.
pub struct OpTracer {
    sink: Option<Arc<SpanSink>>,
    parent: Option<usize>,
    proc: u32,
    calls: u32,
    spans: Vec<Span>,
}

impl OpTracer {
    /// A recorder for process `proc`; `sink` is `None` in untraced runs.
    pub fn new(sink: Option<Arc<SpanSink>>, parent: Option<usize>, proc: u32) -> OpTracer {
        OpTracer { sink, parent, proc, calls: 0, spans: Vec::new() }
    }

    /// Runs one `LiveCtx` call, recording a span around every
    /// [`SAMPLE_EVERY`]-th.
    #[inline]
    pub fn op<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let Some(sink) = &self.sink else { return f() };
        self.calls = self.calls.wrapping_add(1);
        if !self.calls.is_multiple_of(SAMPLE_EVERY) {
            return f();
        }
        let start_ns = sink.now();
        let r = f();
        let end_ns = sink.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: self.parent,
            proc: Some(self.proc),
        });
        r
    }
}

impl Drop for OpTracer {
    fn drop(&mut self) {
        // A poisoned sink means the run already failed; its spans are moot.
        if let Some(Ok(mut all)) = self.sink.as_ref().map(|s| s.spans.lock()) {
            all.append(&mut self.spans);
        }
    }
}
