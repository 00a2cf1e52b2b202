//! How one statement's edit moves node ids, for the index's tables.
//!
//! An edit of `smoqe_xml::edit_targets` reports the disjoint windows it
//! spliced (`Edited::windows`). Ids between windows — the **kept
//! segments** — move by the running delta of the windows before them, so
//! every per-node table of the index copies as segments, and every sorted
//! id list as kept runs with the windows' fresh ids merged in: one pass
//! over each table, however many windows there are.

use smoqe_xml::{Document, EditSpan, NodeId};
use std::ops::Range;

/// One window in old ids: `[start, end)` replaced by `inserted` nodes.
struct Window {
    start: u32,
    end: u32,
    inserted: u32,
}

/// The windows of one edit, ascending, with the id deltas between them.
pub(crate) struct Remap {
    windows: Vec<Window>,
    /// `moved[i]`: the id delta (two's complement) of the windows before
    /// window `i`; one more entry holds the total.
    moved: Vec<u32>,
    /// Whether a window replaced the root: every id moved.
    pub root_replaced: bool,
    /// The windows' parents and all their ancestors, in new ids,
    /// descending, each once: the nodes outside the windows whose
    /// subtrees changed, children before parents.
    pub ancestors: Vec<u32>,
}

impl Remap {
    /// The remap of `chain` — disjoint windows, last first (see
    /// `smoqe_xml::Edited::windows`; a single span is one) — which took
    /// some document to `new_doc`.
    pub fn new(new_doc: &Document, chain: &[EditSpan]) -> Remap {
        let windows: Vec<Window> = chain
            .iter()
            .rev()
            .map(|s| Window {
                start: s.start,
                end: s.start + s.removed,
                inserted: s.inserted,
            })
            .collect();
        debug_assert!(
            windows.windows(2).all(|w| w[0].end <= w[1].start),
            "the windows of one pass are disjoint, last first"
        );
        let mut moved = Vec::with_capacity(windows.len() + 1);
        let mut delta = 0u32;
        moved.push(delta);
        for w in &windows {
            delta = delta.wrapping_add(w.inserted).wrapping_sub(w.end - w.start);
            moved.push(delta);
        }
        let mut remap = Remap {
            windows,
            moved,
            root_replaced: chain.iter().any(|s| s.parent.is_none()),
            ancestors: Vec::new(),
        };
        // Parents precede their windows, so they are kept nodes.
        let parents = || {
            chain
                .iter()
                .filter_map(|s| s.parent)
                .map(|p| NodeId(remap.map(p.0)))
        };
        let chains =
            || parents().flat_map(|p| std::iter::successors(Some(p), |&a| new_doc.parent(a)));
        let mut ancestors = Vec::with_capacity(chains().count());
        ancestors.extend(chains().map(|a| a.0));
        ancestors.sort_unstable_by(|a, b| b.cmp(a));
        ancestors.dedup();
        remap.ancestors = ancestors;
        remap
    }

    /// The new id of kept old id `x`.
    #[inline]
    pub fn map(&self, x: u32) -> u32 {
        x.wrapping_add(self.moved[self.windows.partition_point(|w| w.end <= x)])
    }

    /// The new-id ranges of the windows' nodes, ascending.
    pub fn fresh(&self) -> impl Iterator<Item = Range<u32>> + '_ {
        self.windows.iter().zip(&self.moved).map(|(w, &d)| {
            let start = w.start.wrapping_add(d);
            start..start + w.inserted
        })
    }

    /// Copies a per-node table across the edit: each kept segment through
    /// `keep` (with its old slice and its id delta), each window as
    /// `fill` placeholders.
    pub fn splice_table<T: Copy>(
        &self,
        old: &[T],
        new_len: usize,
        fill: T,
        mut keep: impl FnMut(&mut Vec<T>, &[T], u32),
    ) -> Vec<T> {
        let mut out = Vec::with_capacity(new_len);
        let mut from = 0usize;
        for (w, &d) in self.windows.iter().zip(&self.moved) {
            keep(&mut out, &old[from..w.start as usize], d);
            out.resize(out.len() + w.inserted as usize, fill);
            from = w.end as usize;
        }
        keep(
            &mut out,
            &old[from..],
            *self.moved.last().expect("one delta per window"),
        );
        debug_assert_eq!(out.len(), new_len);
        out
    }

    /// Appends sorted old ids `old` to `out` in new ids — kept ones moved,
    /// ones inside a window dropped — with the sorted new ids `fresh`
    /// merged in. Costs a galloping search per kept run, not a pass per
    /// window.
    pub fn splice_list(
        &self,
        old: &[u32],
        fresh: impl IntoIterator<Item = u32>,
        out: &mut Vec<u32>,
    ) {
        let mut fresh = fresh.into_iter().peekable();
        let (mut rest, mut w) = (old, 0usize);
        while let Some(&x) = rest.first() {
            w += gallop(&self.windows[w..], |win| win.end <= x);
            let d = self.moved[w];
            let kept = match self.windows.get(w) {
                Some(win) => gallop(rest, |&y| y < win.start),
                None => rest.len(),
            };
            let first = x.wrapping_add(d);
            while let Some(f) = fresh.next_if(|&f| f < first) {
                out.push(f);
            }
            out.extend(rest[..kept].iter().map(|&y| y.wrapping_add(d)));
            rest = &rest[kept..];
            if let Some(win) = self.windows.get(w) {
                rest = &rest[gallop(rest, |&y| y < win.end)..];
            }
        }
        out.extend(fresh);
    }
}

/// `items.partition_point(pred)` by galloping from the front: probes at
/// 1, 2, 4, … then a binary search of the last stride, so a short prefix
/// costs O(log prefix) however long `items` is — and touches only the
/// cache lines near the front.
fn gallop<T>(items: &[T], pred: impl Fn(&T) -> bool) -> usize {
    let mut lo = 0;
    let mut step = 1;
    while lo + step <= items.len() && pred(&items[lo + step - 1]) {
        lo += step;
        step *= 2;
    }
    let hi = (lo + step).min(items.len());
    lo + items[lo..hi].partition_point(pred)
}
