//! Shared harness for the SMOQE experiments.
//!
//! The `experiments` binary regenerates the paper's tables on stdout and
//! the layer-by-layer experiments; the allocation tests under `tests/`
//! pin what the hot paths allocate. Both build their workloads through
//! this module so parameters stay consistent. Timing that a claim rests
//! on comes from the repository's benchmark (`benchmark/`).

use smoqe::workloads::{hospital, org};
use smoqe::User;
use smoqe_view::{derive, AccessPolicy, ViewSpec};
use smoqe_xml::{Document, Dtd, Vocabulary};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::{Duration, Instant};

/// A global allocator that counts, per thread, the allocations and
/// reallocations it serves. Install it with `#[global_allocator]` in a
/// binary and read [`allocations`] before and after the work measured.
pub struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: a thread being torn down may still free and allocate.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counter is a const-initialized thread-local `Cell`,
// which itself never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Allocations (and reallocations) the calling thread has made so far
/// through [`CountingAlloc`]; always 0 where it is not the global
/// allocator.
pub fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// The `ingest_stream` batch of the repository's benchmark: the six
/// `researchers` view queries and two point shapes on the unique
/// medications of [`ingest_document`], all asked as `researchers`.
pub fn ingest_batch() -> Vec<String> {
    let mut queries: Vec<String> = hospital::VIEW_QUERIES
        .iter()
        .map(|(_, q)| q.to_string())
        .collect();
    queries.push(format!(
        "hospital/patient/treatment[medication = '{}']",
        unique_medication(0)
    ));
    queries.push(format!(
        "hospital/patient[treatment/medication = '{}']/treatment",
        unique_medication(1)
    ));
    queries
}

fn unique_medication(i: usize) -> String {
    format!("M{i:02}")
}

/// The `view_scan` pool: the admin document queries, the `researchers`
/// view queries and `//visit/date` — thirteen queries, each with the
/// principal that asks it.
pub fn view_scan_pool() -> Vec<(User, &'static str)> {
    let group = User::Group(hospital::GROUP.into());
    let mut pool: Vec<(User, &str)> = hospital::DOC_QUERIES
        .iter()
        .map(|(_, q)| (User::Admin, *q))
        .collect();
    pool.extend(
        hospital::VIEW_QUERIES
            .iter()
            .map(|(_, q)| (group.clone(), *q)),
    );
    pool.push((User::Admin, "//visit/date"));
    pool
}

/// The `view_scan` body: the hospital generator at seed 2006 and depth 8,
/// about `nodes` nodes.
pub fn view_scan_document(nodes: usize) -> String {
    let vocab = Vocabulary::new();
    let mut config = hospital::generator_config(&vocab, 2006, nodes);
    config.max_depth = 8;
    smoqe_xml::generate(&hospital::dtd(&vocab), &config)
        .expect("hospital DTD generates")
        .to_xml()
}

/// The shape of the `ingest_stream` document: the hospital generator at
/// seed 2006 and depth 8, about `nodes` nodes, with eight top-level
/// patients spliced in at evenly spaced boundaries, each carrying an
/// autism medication (so policy S0 shows it) and a medication literal no
/// other patient has ([`ingest_batch`]'s point queries find them).
pub fn ingest_document(nodes: usize) -> String {
    const UNIQUES: usize = 8;
    let vocab = Vocabulary::new();
    let mut config = hospital::generator_config(&vocab, 2006, nodes);
    config.max_depth = 8;
    let base = smoqe_xml::generate(&hospital::dtd(&vocab), &config)
        .expect("hospital DTD generates")
        .to_xml();
    let mut slots: Vec<usize> = base
        .match_indices("</patient><patient>")
        .map(|(at, _)| at + "</patient>".len())
        .collect();
    slots.push(base.rfind("</hospital>").expect("hospital root element"));
    let mut out = String::with_capacity(base.len() + UNIQUES * 256);
    let mut copied = 0;
    for i in 0..UNIQUES {
        let at = slots[i * slots.len() / UNIQUES];
        out.push_str(&base[copied..at]);
        copied = at;
        out.push_str(&format!(
            "<patient><pname>U{i:02}</pname>\
             <visit><treatment><medication>autism</medication></treatment><date>2006-01-11</date></visit>\
             <visit><treatment><medication>{}</medication></treatment><date>2006-02-07</date></visit>\
             </patient>",
            unique_medication(i)
        ));
    }
    out.push_str(&base[copied..]);
    out
}

/// A fully prepared hospital scenario at a given document size.
pub struct HospitalSetup {
    /// Shared vocabulary.
    pub vocab: Vocabulary,
    /// Source DTD (Fig. 3(a)).
    pub dtd: Dtd,
    /// Derived view spec (Fig. 3(c)/(d)).
    pub spec: ViewSpec,
    /// Generated source document.
    pub doc: Document,
}

impl HospitalSetup {
    /// Builds the scenario with a generated document of roughly
    /// `target_nodes` nodes (seeded, deterministic).
    pub fn generated(seed: u64, target_nodes: usize) -> Self {
        let vocab = Vocabulary::new();
        let dtd = hospital::dtd(&vocab);
        let policy = AccessPolicy::parse(dtd.clone(), hospital::POLICY).expect("policy parses");
        let spec = derive(&policy);
        let doc = hospital::generate_document(&vocab, seed, target_nodes);
        HospitalSetup {
            vocab,
            dtd,
            spec,
            doc,
        }
    }

    /// Builds the scenario over the small handwritten sample.
    pub fn sample() -> Self {
        let vocab = Vocabulary::new();
        let dtd = hospital::dtd(&vocab);
        let policy = AccessPolicy::parse(dtd.clone(), hospital::POLICY).expect("policy parses");
        let spec = derive(&policy);
        let doc = Document::parse_str(hospital::SAMPLE_DOCUMENT, &vocab).expect("sample parses");
        HospitalSetup {
            vocab,
            dtd,
            spec,
            doc,
        }
    }
}

/// Splices `n` extra patients with globally unique pname values
/// (`"U00"`, `"U01"`, …) into a hospital document's root, spread evenly
/// over the existing patients. Point queries like `//patient[pname =
/// 'U07']` then have value posting lists of length 1 — the shape the
/// predicated jump driver is built for.
pub fn splice_unique_patients(doc: &Document, vocab: &Vocabulary, n: usize) -> Document {
    let mut xml = doc.to_xml();
    let mut at = 0usize;
    let mut insertions: Vec<(usize, String)> = Vec::new();
    for i in 0..n {
        let extra = format!(
            "<patient><pname>U{i:02}</pname><visit><treatment><test>blood</test>\
             </treatment><date>2006-01-11</date></visit></patient>"
        );
        // Before the next top-level </patient><patient> boundary (or the
        // root close), so uniques interleave with real patients.
        at = match xml[at..].find("</patient><patient>") {
            Some(off) => at + off + "</patient>".len(),
            None => xml.rfind("</hospital>").expect("hospital root"),
        };
        insertions.push((at, extra));
    }
    for (at, extra) in insertions.into_iter().rev() {
        xml.insert_str(at, &extra);
    }
    Document::parse_str(&xml, vocab).expect("spliced document parses")
}

/// A prepared org-chart scenario (the non-hospital control workload).
pub struct OrgSetup {
    /// Shared vocabulary.
    pub vocab: Vocabulary,
    /// Source DTD.
    pub dtd: Dtd,
    /// Derived view spec.
    pub spec: ViewSpec,
    /// Generated source document.
    pub doc: Document,
}

impl OrgSetup {
    /// Builds the org scenario with a generated document.
    pub fn generated(seed: u64, target_nodes: usize) -> Self {
        let vocab = Vocabulary::new();
        let dtd = org::dtd(&vocab);
        let policy = AccessPolicy::parse(dtd.clone(), org::POLICY).expect("policy parses");
        let spec = derive(&policy);
        let doc = org::generate_document(&vocab, seed, target_nodes);
        OrgSetup {
            vocab,
            dtd,
            spec,
            doc,
        }
    }
}

/// Times a closure, returning `(result, wall time)`.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Times `f` over `iters` runs after one warm-up, returning the mean.
pub fn time_mean<T>(iters: usize, mut f: impl FnMut() -> T) -> Duration {
    let _ = f(); // warm-up
    let start = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(f());
    }
    start.elapsed() / iters as u32
}

/// Formats a duration compactly (µs/ms/s).
pub fn fmt_duration(d: Duration) -> String {
    let us = d.as_secs_f64() * 1e6;
    if us < 1_000.0 {
        format!("{us:.1}us")
    } else if us < 1_000_000.0 {
        format!("{:.2}ms", us / 1e3)
    } else {
        format!("{:.2}s", us / 1e6)
    }
}

/// A fixed-width text table (the experiment binary's output format).
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header arity).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row arity");
        self.rows.push(cells);
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, c) in cells.iter().enumerate() {
                line.push_str(&format!("{:<width$}  ", c, width = widths[i]));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setups_build() {
        let h = HospitalSetup::generated(1, 1_000);
        assert!(h.doc.node_count() >= 1_000);
        h.dtd.validate(&h.doc).unwrap();
        h.spec.validate(&h.dtd).unwrap();
        let o = OrgSetup::generated(1, 1_000);
        o.dtd.validate(&o.doc).unwrap();
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["name", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["long-name".into(), "2".into()]);
        let s = t.render();
        assert!(s.contains("long-name"));
        assert!(s.lines().count() == 4);
    }

    #[test]
    fn duration_formatting() {
        assert!(fmt_duration(Duration::from_micros(12)).ends_with("us"));
        assert!(fmt_duration(Duration::from_millis(12)).ends_with("ms"));
        assert!(fmt_duration(Duration::from_secs(2)).ends_with('s'));
    }
}
