//! In-memory span recorder for the traced run (`--trace 1`).
//!
//! A span is one call into a layer, recorded from the benchmark's side of
//! the call: name, start, end, the span that was open when it started
//! (its parent) and the request it served. Spans stay in memory until the
//! run ends, then go to a JSON-lines file and a per-layer self-time table.
//! With tracing off every call is a single branch, so the untraced loops
//! that give the end-to-end metrics run the same code.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Spans kept per tracer; later spans are counted as dropped.
const MAX_SPANS: usize = 400_000;

/// Marks a span with no parent, and the id `enter` returns when nothing
/// was recorded.
pub const NONE: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub request: u64,
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    dropped: u64,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant) -> Tracer {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
            dropped: 0,
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Nanoseconds from the shared epoch to `t`.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span; close it with [`exit`](Self::exit).
    #[inline]
    pub fn enter(&mut self, name: &'static str, request: u64) -> u32 {
        if !self.on {
            return NONE;
        }
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return NONE;
        }
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NONE);
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        self.open.push(id);
        id
    }

    #[inline]
    pub fn exit(&mut self, id: u32) {
        if id == NONE {
            return;
        }
        let end = self.ns(Instant::now());
        self.spans[id as usize].end_ns = end;
        if self.open.last() == Some(&id) {
            self.open.pop();
        }
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name, request);
        let out = f();
        self.exit(id);
        out
    }

    /// Records an already-finished span (times measured by the caller),
    /// under the currently open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant, request: u64) {
        if !self.on {
            return;
        }
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return;
        }
        let parent = self.open.last().copied().unwrap_or(NONE);
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request,
        });
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Per span name: (count, total ms, self ms), where self time is the
    /// span's duration minus the durations of its child spans.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NONE {
                child_ns[s.parent as usize] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += dur as f64 / 1e6;
            e.2 += dur.saturating_sub(child) as f64 / 1e6;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NONE {
                "null".to_owned()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        w.flush()
    }
}
