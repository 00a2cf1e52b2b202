//! The benchmark's own span recorder.
//!
//! No crate under test carries spans yet, so the traced run records them
//! from outside: one span around each call into a layer's public
//! function. A span has a name, a start, an end, the span that caused it
//! and the id of the request it belongs to. Spans stay in memory; the
//! first [`KEPT_OPS`] requests of each thread are written out at exit and
//! every request contributes its self times to the per-name samples.

use std::collections::BTreeMap;
use std::time::Instant;

/// Requests per thread whose raw spans are kept for the trace file.
pub const KEPT_OPS: usize = 2_000;

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the causing span within the same request.
    pub parent: Option<u32>,
    pub request: u64,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Self time of every span of one request: its duration minus the part
/// of its interval that its direct children cover (children may overlap
/// each other, so the covered part is the union of their intervals).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            if end > start {
                children[p as usize].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration().saturating_sub(covered)
        })
        .collect()
}

/// One thread's recorder. Not shared: each load thread owns one and the
/// workload merges them when the threads have joined.
pub struct Tracer {
    origin: Instant,
    current: Vec<Span>,
    open: Vec<u32>,
    kept: Vec<Span>,
    kept_ops: usize,
    /// Self-time samples (ns) per span name.
    pub samples: BTreeMap<&'static str, Vec<u64>>,
}

impl Tracer {
    /// All tracers of a run share `origin` so their spans line up.
    pub fn new(origin: Instant) -> Self {
        Tracer {
            origin,
            current: Vec::new(),
            open: Vec::new(),
            kept: Vec::new(),
            kept_ops: 0,
            samples: BTreeMap::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, request: u64) -> u32 {
        let id = self.current.len() as u32;
        let now = self.now();
        self.current.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(id);
        id
    }

    /// Closes `id` (and anything left open beneath it).
    pub fn exit(&mut self, id: u32) {
        let now = self.now();
        while let Some(top) = self.open.pop() {
            self.current[top as usize].end_ns = now;
            if top == id {
                break;
            }
        }
    }

    /// Duration of span `id` of the request being recorded.
    pub fn duration_of(&self, id: u32) -> u64 {
        self.current[id as usize].duration()
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, request);
        let out = f();
        self.exit(id);
        out
    }

    /// Records an already-timed root span (the whole op, timed by the
    /// load loop itself so traced and untraced runs time it alike).
    pub fn root(&mut self, name: &'static str, request: u64, start: Instant, end: Instant) {
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.current.push(Span {
            name,
            start_ns: at(start),
            end_ns: at(end),
            parent: None,
            request,
        });
    }

    /// Ends the current request: folds its self times into the samples
    /// and keeps its raw spans while the thread is under [`KEPT_OPS`].
    pub fn finish_request(&mut self) {
        debug_assert!(self.open.is_empty(), "request finished with open spans");
        for (span, own) in self.current.iter().zip(self_times(&self.current)) {
            self.samples.entry(span.name).or_default().push(own);
        }
        if self.kept_ops < KEPT_OPS {
            self.kept_ops += 1;
            let base = self.kept.len() as u32;
            self.kept.extend(self.current.drain(..).map(|mut s| {
                s.parent = s.parent.map(|p| p + base);
                s
            }));
        }
        self.current.clear();
    }
}

/// The merged result of a traced run.
#[derive(Default)]
pub struct TraceSummary {
    samples: BTreeMap<&'static str, Vec<u64>>,
    kept: Vec<Vec<Span>>,
}

impl TraceSummary {
    pub fn absorb(&mut self, tracer: Tracer) {
        for (name, mut v) in tracer.samples {
            self.samples.entry(name).or_default().append(&mut v);
        }
        self.kept.push(tracer.kept);
    }

    /// Median self time of the spans called `name`, in nanoseconds (0
    /// when the run recorded none — the layer was bypassed).
    pub fn p50_ns(&self, name: &str) -> u64 {
        let mut v = self.samples.get(name).cloned().unwrap_or_default();
        v.sort_unstable();
        crate::util::percentile(&v, 50.0)
    }

    /// [`TraceSummary::p50_ns`] in microseconds.
    pub fn p50_us(&self, name: &str) -> f64 {
        self.p50_ns(name) as f64 / 1e3
    }

    /// Total self time of the spans called `name`, in nanoseconds.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.samples.get(name).map_or(0, |v| v.iter().sum())
    }

    /// Writes the kept spans as one JSON array, one object per span;
    /// `parent` is an index into the same thread's list.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "[")?;
        let mut first = true;
        for (thread, spans) in self.kept.iter().enumerate() {
            for (i, s) in spans.iter().enumerate() {
                if !first {
                    writeln!(out, ",")?;
                }
                first = false;
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                write!(
                    out,
                    "{{\"thread\":{thread},\"index\":{i},\"name\":\"{}\",\"start_ns\":{},\
                     \"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                    s.name, s.start_ns, s.end_ns, s.request
                )?;
            }
        }
        writeln!(out, "\n]")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name: "s",
            start_ns: start,
            end_ns: end,
            parent,
            request: 1,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // root 0..100 > a 10..60 > b 20..30; a's child does not count
        // against the root a second time.
        let spans = [
            span(0, 100, None),
            span(10, 60, Some(0)),
            span(20, 30, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![50, 40, 10]);
    }

    #[test]
    fn self_time_takes_the_union_of_sibling_children() {
        // Siblings 10..40 and 30..50 overlap by 10; 70..80 is disjoint.
        let spans = [
            span(0, 100, None),
            span(30, 50, Some(0)),
            span(10, 40, Some(0)),
            span(70, 80, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 40 - 10);
    }

    #[test]
    fn a_child_is_clipped_to_its_parent() {
        let spans = [span(10, 20, None), span(0, 15, Some(0))];
        assert_eq!(self_times(&spans), vec![5, 15]);
    }

    #[test]
    fn tracer_nests_and_folds_samples_per_request() {
        let mut t = Tracer::new(Instant::now());
        let root = t.enter("root", 7);
        t.span("leaf", 7, || std::hint::black_box(1 + 1));
        t.exit(root);
        t.finish_request();
        assert_eq!(t.samples["root"].len(), 1);
        assert_eq!(t.samples["leaf"].len(), 1);
        assert_eq!(t.kept[1].parent, Some(0));
        assert_eq!(t.kept[1].request, 7);
        assert!(t.kept[0].duration() >= t.kept[1].duration());
    }
}
