//! In-memory span recording for the traced run.
//!
//! Spans are recorded from the benchmark's own files around each call
//! into an engine layer: name, start, end, parent span, query id, and
//! counts taken at the same boundary. They stay in memory and are written
//! out once, when the run ends. With recording off, `begin`/`end` are a
//! branch on a flag, so the same code path serves the untraced runs.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub query: Option<usize>,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub counts: Vec<(&'static str, f64)>,
}

impl Span {
    pub fn ns(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64
    }
}

/// Handle of an open span (`None` when recording is off).
#[must_use]
pub struct SpanId(Option<usize>);

pub struct Spans {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn set_on(&mut self, on: bool) {
        assert!(self.open.is_empty(), "toggle recording between spans only");
        self.on = on;
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, query: Option<usize>) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            query,
            parent: self.open.last().copied(),
            start_ns: self.now(),
            end_ns: 0,
            counts: Vec::new(),
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    pub fn end(&mut self, id: SpanId, counts: &[(&'static str, f64)]) {
        let Some(id) = id.0 else { return };
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let now = self.now();
        let s = &mut self.spans[id];
        s.end_ns = now;
        s.counts.extend_from_slice(counts);
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Durations (ns) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.named(name).map(Span::ns).collect()
    }

    /// Summed duration (ns) of every span called `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.named(name).map(Span::ns).sum()
    }

    /// Sum of count `key` over spans called `name`.
    pub fn count(&self, name: &str, key: &str) -> f64 {
        self.named(name)
            .flat_map(|s| s.counts.iter())
            .filter(|(k, _)| *k == key)
            .map(|(_, v)| v)
            .sum()
    }

    /// Self time per span name: each span's duration minus the part its
    /// direct children cover, summed by name.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut child = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.ns();
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child) {
            *out.entry(s.name).or_insert(0.0) += s.ns() - c;
        }
        out
    }

    /// Write every span as one JSON object per line to
    /// `perfbench/out/spans-<workload>-<seed>.jsonl` under the working
    /// directory, reporting the outcome on stderr.
    pub fn write(&self, workload: &str, seed: u64) {
        let mut text = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
            let _ = write!(
                text,
                "{{\"id\":{id},\"name\":\"{}\",\"parent\":{},\"query\":{},\"start_ns\":{},\"end_ns\":{}",
                s.name,
                opt(s.parent),
                opt(s.query),
                s.start_ns,
                s.end_ns
            );
            for (k, v) in &s.counts {
                let _ = write!(text, ",\"{k}\":{v}");
            }
            text.push_str("}\n");
        }
        let dir = std::path::Path::new("perfbench/out");
        let path = dir.join(format!("spans-{workload}-{seed}.jsonl"));
        match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, text)) {
            Ok(()) => eprintln!("# spans written to {}", path.display()),
            Err(e) => eprintln!("# could not write spans to {}: {e}", path.display()),
        }
    }
}
