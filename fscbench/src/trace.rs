//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark's own code around each call into a
//! layer; nothing inside the program is instrumented.  A span name is
//! `<layer>:<operation>` (for example `serve.wal:append`); the layer is the part
//! before the colon.  Spans stay in memory and are written out once, at exit.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::stats::Samples;

const NO_PARENT: u32 = u32::MAX;

/// One closed span.  Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start: u64,
    end: u64,
    parent: u32,
    request: u64,
}

/// Handle on an open span; `None` when tracing is off.
pub type SpanId = Option<u32>;

/// The recorder.  When off, `begin`/`end` do nothing and read no clock.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.  `request` groups
    /// the spans of one request (the batch or query sequence number).
    pub fn begin(&mut self, name: &'static str, request: u64) -> SpanId {
        if !self.on {
            return None;
        }
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans per run");
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            request,
        });
        self.open.push(id);
        Some(id)
    }

    /// Closes the span `begin` returned (spans close innermost first).
    pub fn end(&mut self, id: SpanId) {
        if let Some(id) = id {
            let end = self.now();
            let popped = self.open.pop();
            debug_assert_eq!(popped, Some(id), "spans close innermost first");
            self.spans[id as usize].end = end;
        }
    }

    /// Runs `f` inside a leaf span.
    pub fn leaf<R>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, request);
        let out = f();
        self.end(id);
        out
    }

    /// Durations of every span called `name`, in microseconds.
    pub fn durations_us(&self, name: &str) -> Samples {
        let mut out = Samples::default();
        for s in self.spans.iter().filter(|s| s.name == name) {
            out.push((s.end - s.start) as f64 / 1e3);
        }
        out
    }

    /// Self time per layer in nanoseconds: each span's duration minus the part
    /// its child spans cover, summed by layer.
    pub fn self_time_ns(&self) -> BTreeMap<&'static str, f64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                covered[s.parent as usize] += s.end - s.start;
            }
        }
        let mut out = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(covered) {
            let layer = s.name.split(':').next().unwrap_or(s.name);
            *out.entry(layer).or_insert(0.0) += (s.end - s.start).saturating_sub(child) as f64;
        }
        out
    }

    /// Writes every span as a tab-separated line:
    /// `id parent request name start_ns end_ns` (`parent` is `-` for roots).
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\trequest\tname\tstart_ns\tend_ns")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{id}\t{parent}\t{}\t{}\t{}\t{}",
                s.request, s.name, s.start, s.end
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let outer = t.begin("a:outer", 0);
        t.leaf("b:inner", 0, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.end(outer);
        let self_ns = t.self_time_ns();
        let outer_total = t.durations_us("a:outer").sum() * 1e3;
        let inner_total = t.durations_us("b:inner").sum() * 1e3;
        assert!(inner_total >= 2e6);
        assert!((self_ns["a"] - (outer_total - inner_total)).abs() < 1.0);
        assert!((self_ns["b"] - inner_total).abs() < 1.0);
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("a:x", 0);
        assert!(id.is_none());
        t.end(id);
        assert!(t.self_time_ns().is_empty());
    }
}
