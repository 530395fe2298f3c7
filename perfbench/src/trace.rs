//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span is a name, a start and an end (ns since the run began), the
//! span that caused it and the request it belongs to. Spans stay in
//! memory until the run ends and are then written out as JSON lines.
//! A disabled tracer records nothing; it costs one branch per call.

use std::io::Write as _;
use std::time::Instant;

/// Handle of an open span; [`NONE`] when tracing is off.
pub type SpanId = usize;

/// The handle a disabled tracer hands out.
pub const NONE: SpanId = usize::MAX;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<SpanId>,
    req: Option<u64>,
}

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    base: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder timing from `base`; records only when `on`.
    pub fn new(on: bool, base: Instant) -> Self {
        Tracer { on, base, spans: Vec::new() }
    }

    /// Switches recording on or off; recorded spans are kept.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Nanoseconds since the run began.
    pub fn now_ns(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    /// Opens a span starting now.
    pub fn begin(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        req: Option<u64>,
    ) -> SpanId {
        if !self.on {
            return NONE;
        }
        let now = self.now_ns();
        self.begin_at(name, now, parent, req)
    }

    /// Opens a span that started at `start_ns` (a request's due time).
    pub fn begin_at(
        &mut self,
        name: &'static str,
        start_ns: u64,
        parent: Option<SpanId>,
        req: Option<u64>,
    ) -> SpanId {
        if !self.on {
            return NONE;
        }
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, req });
        self.spans.len() - 1
    }

    /// Closes span `id` now.
    pub fn end(&mut self, id: SpanId) {
        if id != NONE {
            let now = self.now_ns();
            self.spans[id].end_ns = now;
        }
    }

    /// Durations (ns) of every closed span named `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<u64>| v.map_or_else(|| "null".to_owned(), |v| v.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"req\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent.map(|p| p as u64)),
                opt(s.req),
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let id = t.begin("x", None, Some(1));
        t.end(id);
        assert_eq!(id, NONE);
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn spans_nest_and_time() {
        let mut t = Tracer::new(true, Instant::now());
        let outer = t.begin("outer", None, Some(3));
        let inner = t.begin("inner", Some(outer), Some(3));
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(inner);
        t.end(outer);
        let (o, i) = (t.durations_ns("outer")[0], t.durations_ns("inner")[0]);
        assert!(i >= 2e6 && o >= i, "outer {o} inner {i}");
        assert_eq!(t.spans[inner].parent, Some(outer));
    }
}
