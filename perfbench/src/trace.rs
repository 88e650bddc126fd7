//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records a name, start, end, parent span and request id. Spans
//! are kept in memory and written out once, at the end of the run, so
//! recording costs two clock reads and one short lock per call. With
//! tracing off, [`Tracer::span`] calls straight through.

use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique within the run.
    pub id: u32,
    /// Layer boundary, e.g. `core.run`.
    pub name: &'static str,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// The enclosing span, if any.
    pub parent: Option<u32>,
    /// The request or cell this span belongs to.
    pub req: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e9
    }
}

/// The span recorder of one run.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    t0: Instant,
    next: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder; `on == false` records nothing.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            next: AtomicU32::new(0),
            spans: Mutex::new(Vec::with_capacity(if on { 1 << 16 } else { 0 })),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`. `f` receives the span's id
    /// to pass as the parent of nested spans (`None` when off).
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<u32>,
        req: u64,
        f: impl FnOnce(Option<u32>) -> T,
    ) -> T {
        if !self.on {
            return f(None);
        }
        // Ids only need to be unique, so `Relaxed` suffices.
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(Some(id));
        let end_ns = self.now_ns();
        self.spans
            .lock()
            .expect("span list lock poisoned by a panicking recorder")
            .push(Span {
                id,
                name,
                start_ns,
                end_ns,
                parent,
                req,
            });
        out
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list lock poisoned").clone()
    }

    /// Durations (seconds) of every span named `name`.
    pub fn secs(&self, name: &str) -> Vec<f64> {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn dump(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"req\": {}}}",
                s.id, s.name, s.start_ns, s.end_ns, s.req
            )?;
        }
        out.flush()
    }
}

/// Writes the span dump and records where it went.
pub fn finish(args: &crate::Args, tracer: &Tracer, out: &mut crate::report::Outcome) {
    let path = args
        .work_dir
        .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
    match tracer.dump(&path) {
        Ok(()) => out.info(
            "spans",
            format!(
                "{{\"path\": \"{}\", \"count\": {}}}",
                path.display(),
                tracer.spans().len()
            ),
        ),
        Err(e) => out.check("span dump written", false, e.to_string()),
    }
}
