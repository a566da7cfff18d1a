//! In-memory spans around the benchmark's own calls into each layer.
//!
//! A span has a name, an id, its parent's id (0 for a root), start and end
//! (nanoseconds after the tracer was created) and a work count, so a span
//! around a loop of `count` calls yields a per-call time. Spans stay in
//! memory and are written out as JSON lines when the run ends. No span
//! reaches inside the library: every one wraps a public call made here.

use dkc_json::Json;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id within the run (1-based).
    pub id: u64,
    /// The enclosing span's id, 0 for a root.
    pub parent: u64,
    /// Layer-qualified name, e.g. `graph.decode`.
    pub name: &'static str,
    /// Start, nanoseconds after the tracer's time zero.
    pub start_ns: u64,
    /// End, nanoseconds after the tracer's time zero.
    pub end_ns: u64,
    /// Calls or items the span covers.
    pub count: u64,
}

/// The span recorder.
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<u64>,
}

impl Tracer {
    /// A recorder whose time zero is now.
    pub fn new() -> Tracer {
        Tracer { t0: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name` covering `count` items; spans
    /// opened inside `f` become its children.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        count: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        let id = self.spans.len() as u64 + 1;
        let parent = self.open.last().copied().unwrap_or(0);
        let start_ns = self.now_ns();
        self.spans.push(Span { id, parent, name, start_ns, end_ns: start_ns, count });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let end = self.now_ns();
        self.spans[id as usize - 1].end_ns = end;
        out
    }

    /// Records an already-timed span (`start`/`end` relative to `base`)
    /// and returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u64,
        base: Instant,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        let shift = u64::try_from(base.saturating_duration_since(self.t0).as_nanos()).unwrap_or(0);
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns: start_ns + shift,
            end_ns: end_ns + shift,
            count: 1,
        });
        id
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for s in &self.spans {
            Json::Obj(vec![
                ("id".into(), Json::u64(s.id)),
                ("parent".into(), Json::u64(s.parent)),
                ("name".into(), Json::str(s.name)),
                ("start_ns".into(), Json::u64(s.start_ns)),
                ("end_ns".into(), Json::u64(s.end_ns)),
                ("count".into(), Json::u64(s.count)),
            ])
            .render_into(&mut out);
            out.push('\n');
        }
        std::fs::write(path, out)
    }
}
