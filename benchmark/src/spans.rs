//! In-memory spans of the traced pass: one per call into a layer, written
//! out as JSON lines when the pass ends.
//!
//! Spans are recorded from the benchmark's side of each layer's public
//! functions (and converted from the telemetry the server already exposes);
//! nothing inside the program is instrumented here.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a span in its [`Recorder`].
pub type SpanId = usize;

/// One timed call into a layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `layer.operation`, the layer being `crate.module`.
    pub name: &'static str,
    /// Start, µs from the recorder's epoch.
    pub start_us: f64,
    /// End, µs from the recorder's epoch.
    pub end_us: f64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// The operation (frame, batch, request) all its spans share.
    pub op: u64,
}

impl Span {
    /// Duration in µs.
    pub fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// Collects spans from any thread; cheap enough for a traced pass, never
/// used in a measured one.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    /// A recorder whose epoch is now.
    pub fn new() -> Self {
        Self { epoch: Instant::now(), spans: Mutex::new(Vec::new()) }
    }

    /// µs from the epoch to `at`.
    pub fn us(&self, at: Instant) -> f64 {
        at.saturating_duration_since(self.epoch).as_secs_f64() * 1e6
    }

    /// Records a finished span and returns its id.
    pub fn push(&self, span: Span) -> SpanId {
        let mut spans = self.spans.lock().expect("no recorder user panics while holding the lock");
        spans.push(span);
        spans.len() - 1
    }

    /// Times `f` as a span named `name` under `parent`.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> (T, SpanId) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        (out, self.push(Span { name, start_us: self.us(start), end_us: self.us(end), parent, op }))
    }

    /// Opens a span whose children are recorded before it closes: reserves
    /// the id now, and [`close`](Self::close) stamps the end.
    pub fn open(&self, name: &'static str, parent: Option<SpanId>, op: u64) -> SpanId {
        let now = self.us(Instant::now());
        self.push(Span { name, start_us: now, end_us: now, parent, op })
    }

    /// Closes a span opened by [`open`](Self::open).
    pub fn close(&self, id: SpanId) {
        let now = self.us(Instant::now());
        self.spans.lock().expect("no recorder user panics while holding the lock")[id].end_us = now;
    }

    /// Duration in µs of a recorded span.
    pub fn duration_us(&self, id: SpanId) -> f64 {
        self.spans.lock().expect("no recorder user panics while holding the lock")[id].duration_us()
    }

    /// All spans recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("no recorder user panics while holding the lock").clone()
    }
}

/// A span's self time: its duration minus the part of its interval that its
/// direct children cover (children are clipped to the parent and overlaps
/// among them are counted once).
pub fn self_time_us(spans: &[Span], id: SpanId) -> f64 {
    let parent = &spans[id];
    let mut children: Vec<(f64, f64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start_us.max(parent.start_us), s.end_us.min(parent.end_us)))
        .filter(|(start, end)| end > start)
        .collect();
    children.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut reach = f64::NEG_INFINITY;
    for (start, end) in children {
        if end > reach {
            covered += end - start.max(reach);
            reach = end;
        }
    }
    parent.duration_us() - covered
}

/// Durations (µs) of every span, grouped by name.
pub fn durations_by_name(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for span in spans {
        by_name.entry(span.name).or_default().push(span.duration_us());
    }
    by_name
}

/// Self times (µs) of every span named `name`.
pub fn self_times_of(spans: &[Span], name: &str) -> Vec<f64> {
    (0..spans.len()).filter(|&i| spans[i].name == name).map(|i| self_time_us(spans, i)).collect()
}

/// Writes the spans of a traced pass to `benchmark/out/trace-<workload>.jsonl`
/// under the working directory. The file is a by-product for people to read:
/// failing to write it is reported and does not fail the run.
pub fn write_trace(spans: &[Span], workload: &str) {
    let path = Path::new("benchmark/out").join(format!("trace-{workload}.jsonl"));
    match write_jsonl(spans, &path) {
        Ok(()) => println!("{} spans written to {}", spans.len(), path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

fn write_jsonl(spans: &[Span], path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\": {id}, \"name\": \"{}\", \"start_us\": {:.3}, \"end_us\": {:.3}, \"parent\": {parent}, \"op\": {}}}",
            s.name, s.start_us, s.end_us, s.op
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_us: f64, end_us: f64, parent: Option<SpanId>) -> Span {
        Span { name, start_us, end_us, parent, op: 0 }
    }

    #[test]
    fn self_time_subtracts_what_children_cover_once() {
        let spans = vec![
            span("parent", 0.0, 100.0, None),
            span("a", 10.0, 30.0, Some(0)),
            span("b", 20.0, 50.0, Some(0)),  // overlaps `a` by 10
            span("c", 90.0, 120.0, Some(0)), // sticks out by 20
            span("grandchild", 12.0, 18.0, Some(1)),
            span("elsewhere", 0.0, 100.0, None),
        ];
        // Covered: [10, 50] and [90, 100] = 50.
        assert_eq!(self_time_us(&spans, 0), 50.0);
        assert_eq!(self_time_us(&spans, 1), 14.0);
        assert_eq!(self_time_us(&spans, 5), 100.0);
    }

    #[test]
    fn open_spans_contain_the_children_timed_inside_them() {
        let rec = Recorder::new();
        let root = rec.open("root", None, 7);
        let ((), child) = rec.time("child", Some(root), 7, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        rec.close(root);
        let spans = rec.spans();
        assert!(
            spans[root].start_us <= spans[child].start_us
                && spans[child].end_us <= spans[root].end_us
        );
        assert!(spans[child].duration_us() >= 2000.0);
        assert!(self_time_us(&spans, root) < spans[root].duration_us());
        assert_eq!(durations_by_name(&spans)["child"].len(), 1);
    }
}
