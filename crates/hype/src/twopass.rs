//! Two-pass baseline evaluator (the "Arb \[8\]" contrast of the paper).
//!
//! Paper §3: *"previous systems require at least two passes of XML tree
//! traversal to evaluate even XPath queries. For example, Arb requires a
//! bottom-up pass of T to evaluate all the predicates of q, followed by a
//! top-down pass to evaluate the selecting path of q."*
//!
//! This module implements exactly that strategy over the same MFAs:
//!
//! * **Pass 1 (bottom-up)**: one sweep in reverse document order computes,
//!   for every element, the truth of *every* predicate — `text()='c'`
//!   truths via subtree text length/hash, `HasPath` truths via per-node
//!   state sets of the predicate automata (this is the pass whose per-node
//!   state-set tables make the approach memory-heavy, the cost HyPE
//!   avoids);
//! * **Pass 2 (top-down)**: a plain guarded NFA simulation of the
//!   selection path, reading predicate truths from the tables; accepting
//!   states yield answers immediately — no Cans needed, because
//!   everything was precomputed.
//!
//! Subtree text comparison uses a 64-bit polynomial hash (length +
//! rolling hash) as a *filter*, a standard trick to avoid materializing
//! per-node strings. A (length, hash) match alone is **not** proof of
//! equality — wrapping polynomial hashes have constructible collisions
//! (e.g. Thue–Morse strings; see the regression test) and a silent wrong
//! answer is unacceptable in an access-control engine — so every filter
//! hit is confirmed with a real comparison of the node's direct text.

use crate::machine::VIRTUAL_NODE;
use crate::stats::EvalStats;
use smoqe_automata::{Mfa, Nfa, NfaId, Pred, PredId, StateId};
use smoqe_rxpath::NodeSet;
use smoqe_xml::{Document, NodeId};

const B: u64 = 1_000_003;

fn pow_b(mut e: u64) -> u64 {
    let mut base = B;
    let mut acc: u64 = 1;
    while e > 0 {
        if e & 1 == 1 {
            acc = acc.wrapping_mul(base);
        }
        base = base.wrapping_mul(base);
        e >>= 1;
    }
    acc
}

fn hash_str(s: &str) -> (u64, u64) {
    let mut h: u64 = 0;
    for b in s.bytes() {
        h = h.wrapping_mul(B).wrapping_add(b as u64);
    }
    (s.len() as u64, h)
}

/// Whether the concatenated *direct* text children of `node` equal
/// `target` — the authoritative comparison behind the (length, hash)
/// filter. Walks the target in place, so no per-node string is built.
fn direct_text_equals(doc: &Document, node: NodeId, target: &str) -> bool {
    let mut rest = target;
    for c in doc.children(node) {
        if let Some(t) = doc.text(c) {
            match rest.strip_prefix(t) {
                Some(tail) => rest = tail,
                None => return false,
            }
        }
    }
    rest.is_empty()
}

/// Dense bitset over (node, state) pairs for one NFA.
struct ReachTable {
    words_per_node: usize,
    bits: Vec<u64>,
}

impl ReachTable {
    fn new(nodes: usize, states: usize) -> Self {
        let words_per_node = states.div_ceil(64).max(1);
        ReachTable {
            words_per_node,
            bits: vec![0; nodes * words_per_node],
        }
    }

    #[inline]
    fn get(&self, node: usize, state: StateId) -> bool {
        let w = node * self.words_per_node + state.index() / 64;
        self.bits[w] & (1u64 << (state.index() % 64)) != 0
    }

    #[inline]
    fn set(&mut self, node: usize, state: StateId) {
        let w = node * self.words_per_node + state.index() / 64;
        self.bits[w] |= 1u64 << (state.index() % 64);
    }

    fn memory_bytes(&self) -> usize {
        self.bits.len() * 8
    }
}

/// Reverse ε-adjacency of an NFA (targets -> sources), guards preserved.
struct ReverseEps {
    /// per state: (source, guard) edges pointing *into* it.
    incoming: Vec<Vec<(StateId, Option<PredId>)>>,
}

impl ReverseEps {
    fn build(nfa: &Nfa) -> Self {
        let mut incoming = vec![Vec::new(); nfa.state_count()];
        for s in nfa.states() {
            for e in nfa.eps_edges(s) {
                incoming[e.target.index()].push((s, e.guard));
            }
        }
        ReverseEps { incoming }
    }
}

/// Outcome details beyond the answers (memory cost of the tables is the
/// headline difference vs. HyPE).
#[derive(Debug, Clone, Copy)]
pub struct TwoPassReport {
    /// Bytes used by the per-node predicate/state tables.
    pub table_bytes: usize,
}

/// Evaluates `mfa` with the two-pass strategy.
pub fn evaluate_mfa_twopass(doc: &Document, mfa: &Mfa) -> (NodeSet, EvalStats) {
    evaluate_mfa_twopass_report(doc, mfa).0
}

/// Two-pass evaluation, also returning the table-memory report.
pub fn evaluate_mfa_twopass_report(
    doc: &Document,
    mfa: &Mfa,
) -> ((NodeSet, EvalStats), TwoPassReport) {
    let n = doc.node_count();
    let mut stats = EvalStats {
        tree_passes: 2,
        ..Default::default()
    };

    // ---- Pass 1: bottom-up --------------------------------------------
    // Direct text (len, hash) per element (text() = 'c' semantics).
    let mut text_len = vec![0u64; n];
    let mut text_hash = vec![0u64; n];
    // Predicate truth tables: bit per (pred, node).
    let pred_count = mfa.pred_count();
    let words = n.div_ceil(64).max(1);
    let mut truth: Vec<Vec<u64>> = vec![vec![0u64; words]; pred_count];
    // Targets of TextEq preds, prehashed.
    let targets: Vec<Option<(u64, u64)>> = mfa
        .preds()
        .map(|(_, p)| match p {
            Pred::TextEq(c) => Some(hash_str(c)),
            _ => None,
        })
        .collect();
    // Reach tables per HasPath pred.
    let mut reach: Vec<Option<(NfaId, ReachTable, ReverseEps)>> = mfa
        .preds()
        .map(|(_, p)| match p {
            Pred::HasPath(nid) => {
                let nfa = mfa.nfa(*nid);
                Some((
                    *nid,
                    ReachTable::new(n, nfa.state_count()),
                    ReverseEps::build(nfa),
                ))
            }
            _ => None,
        })
        .collect();

    let get_truth = |truth: &Vec<Vec<u64>>, p: PredId, node: usize| -> bool {
        truth[p.index()][node / 64] & (1u64 << (node % 64)) != 0
    };

    for raw in (0..n as u32).rev() {
        let node = NodeId(raw);
        let idx = raw as usize;
        match doc.text(node) {
            Some(t) => {
                let (l, h) = hash_str(t);
                text_len[idx] = l;
                text_hash[idx] = h;
                continue;
            }
            None => {
                // Element: combine *direct text children* in order.
                let mut l: u64 = 0;
                let mut h: u64 = 0;
                for c in doc.children(node) {
                    if doc.text(c).is_none() {
                        continue;
                    }
                    let ci = c.index();
                    h = h
                        .wrapping_mul(pow_b(text_len[ci]))
                        .wrapping_add(text_hash[ci]);
                    l += text_len[ci];
                }
                text_len[idx] = l;
                text_hash[idx] = h;
            }
        }
        stats.nodes_visited += 1;
        // Predicates in ascending id order (children precede parents by
        // construction).
        for pid in (0..pred_count as u32).map(PredId) {
            let value = match mfa.pred(pid) {
                Pred::True => true,
                Pred::TextEq(target) => {
                    let (tl, th) = targets[pid.index()].expect("prehashed");
                    // (len, hash) only filters; a hit must be confirmed
                    // against the actual text (collisions exist).
                    text_len[idx] == tl
                        && text_hash[idx] == th
                        && direct_text_equals(doc, node, target)
                }
                Pred::HasPath(_) => {
                    let (nid, mut table, rev) = reach[pid.index()].take().expect("present");
                    let nfa = mfa.nfa(nid);
                    // Seed: accept, plus states with a transition into a
                    // child's reach set.
                    let mut seed: Vec<StateId> = vec![nfa.accept()];
                    for c in doc.child_elements(node) {
                        let cl = doc.label(c).expect("element");
                        for s in nfa.states() {
                            for t in nfa.transitions(s) {
                                if t.test.matches(cl) && table.get(c.index(), t.target) {
                                    seed.push(s);
                                }
                            }
                        }
                    }
                    // Backward ε-closure with guards evaluated at `node`.
                    let mut in_set = vec![false; nfa.state_count()];
                    let mut work = Vec::new();
                    for s in seed {
                        if !in_set[s.index()] {
                            in_set[s.index()] = true;
                            work.push(s);
                        }
                    }
                    while let Some(s) = work.pop() {
                        for &(src, guard) in &rev.incoming[s.index()] {
                            let ok = match guard {
                                None => true,
                                Some(g) => get_truth(&truth, g, idx),
                            };
                            if ok && !in_set[src.index()] {
                                in_set[src.index()] = true;
                                work.push(src);
                            }
                        }
                    }
                    // Store and read off start membership.
                    for (i, &b) in in_set.iter().enumerate() {
                        if b {
                            table.set(idx, StateId(i as u32));
                        }
                    }
                    let value = table.get(idx, nfa.start());
                    reach[pid.index()] = Some((nid, table, rev));
                    value
                }
                Pred::Not(sub) => !get_truth(&truth, *sub, idx),
                Pred::And(subs) => subs.iter().all(|&s| get_truth(&truth, s, idx)),
                Pred::Or(subs) => subs.iter().any(|&s| get_truth(&truth, s, idx)),
            };
            if value {
                truth[pid.index()][idx / 64] |= 1u64 << (idx % 64);
            }
        }
    }

    // ---- Virtual-context predicate truths ------------------------------
    let root = doc.root();
    let mut virtual_truth = vec![false; pred_count];
    for pid in (0..pred_count as u32).map(PredId) {
        let value = match mfa.pred(pid) {
            Pred::True => true,
            Pred::TextEq(_) => {
                // The virtual document node has no direct text.
                let (tl, th) = targets[pid.index()].expect("prehashed");
                tl == 0 && th == 0
            }
            Pred::HasPath(nid) => {
                let nfa = mfa.nfa(*nid);
                let table = &reach[pid.index()].as_ref().expect("present").1;
                let rev = &reach[pid.index()].as_ref().expect("present").2;
                let rl = doc.label(root).expect("element root");
                let mut seed: Vec<StateId> = vec![nfa.accept()];
                for s in nfa.states() {
                    for t in nfa.transitions(s) {
                        if t.test.matches(rl) && table.get(root.index(), t.target) {
                            seed.push(s);
                        }
                    }
                }
                let mut in_set = vec![false; nfa.state_count()];
                let mut work = Vec::new();
                for s in seed {
                    if !in_set[s.index()] {
                        in_set[s.index()] = true;
                        work.push(s);
                    }
                }
                while let Some(s) = work.pop() {
                    for &(src, guard) in &rev.incoming[s.index()] {
                        let ok = match guard {
                            None => true,
                            Some(g) => virtual_truth[g.index()],
                        };
                        if ok && !in_set[src.index()] {
                            in_set[src.index()] = true;
                            work.push(src);
                        }
                    }
                }
                in_set[nfa.start().index()]
            }
            Pred::Not(sub) => !virtual_truth[sub.index()],
            Pred::And(subs) => subs.iter().all(|&s| virtual_truth[s.index()]),
            Pred::Or(subs) => subs.iter().any(|&s| virtual_truth[s.index()]),
        };
        virtual_truth[pid.index()] = value;
    }

    // ---- Pass 2: top-down selection ------------------------------------
    let top = mfa.nfa(mfa.top());
    let closure = |set: &mut Vec<bool>, node: u32| {
        let mut work: Vec<StateId> = (0..set.len())
            .filter(|&i| set[i])
            .map(|i| StateId(i as u32))
            .collect();
        while let Some(s) = work.pop() {
            for e in top.eps_edges(s) {
                let ok = match e.guard {
                    None => true,
                    Some(g) => {
                        if node == VIRTUAL_NODE {
                            virtual_truth[g.index()]
                        } else {
                            get_truth(&truth, g, node as usize)
                        }
                    }
                };
                if ok && !set[e.target.index()] {
                    set[e.target.index()] = true;
                    work.push(e.target);
                }
            }
        }
    };

    let mut answers: Vec<u32> = Vec::new();
    let mut initial = vec![false; top.state_count()];
    initial[top.start().index()] = true;
    closure(&mut initial, VIRTUAL_NODE);

    let mut stack: Vec<(NodeId, Option<Vec<bool>>)> = vec![(root, Some(initial))];
    while let Some((node, parent_set)) = stack.pop() {
        let set = parent_set.expect("pushed with a set");
        let label = doc.label(node).expect("elements only");
        let mut next = vec![false; top.state_count()];
        let mut any = false;
        for (i, &on) in set.iter().enumerate() {
            if !on {
                continue;
            }
            for t in top.transitions(StateId(i as u32)) {
                if t.test.matches(label) {
                    next[t.target.index()] = true;
                    any = true;
                }
            }
        }
        if !any {
            continue;
        }
        stats.nodes_visited += 1;
        closure(&mut next, node.0);
        if next[top.accept().index()] {
            answers.push(node.0);
        }
        let children: Vec<NodeId> = doc.child_elements(node).collect();
        for &c in children.iter().rev() {
            stack.push((c, Some(next.clone())));
        }
    }

    answers.sort_unstable();
    answers.dedup();
    stats.answers = answers.len();
    let table_bytes = truth.iter().map(|t| t.len() * 8).sum::<usize>()
        + reach
            .iter()
            .filter_map(|r| r.as_ref().map(|(_, t, _)| t.memory_bytes()))
            .sum::<usize>()
        + n * 16;
    (
        (
            NodeSet::from_sorted(answers.into_iter().map(NodeId).collect()),
            stats,
        ),
        TwoPassReport { table_bytes },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use smoqe_automata::compile;
    use smoqe_rxpath::{evaluate as naive, parse_path};
    use smoqe_xml::Vocabulary;

    fn check(xml: &str, query: &str) {
        let vocab = Vocabulary::new();
        let doc = Document::parse_str(xml, &vocab).unwrap();
        let path = parse_path(query, &vocab).unwrap();
        let mfa = compile(&path, &vocab);
        let (got, stats) = evaluate_mfa_twopass(&doc, &mfa);
        let want = naive(&doc, &path);
        assert_eq!(got, want, "query `{query}` on `{xml}`");
        assert_eq!(stats.tree_passes, 2);
    }

    #[test]
    fn agrees_with_naive_on_basics() {
        check("<a><b>1</b><c>2</c><b>3</b></a>", "a/b");
        check("<a><b><c>x</c></b><c>y</c></a>", "//c");
        check("<a><b><a><b><a/></b></a></b></a>", "(a/b)*/a");
    }

    #[test]
    fn agrees_on_predicates() {
        let doc = "<a><b><c>yes</c></b><b><d/></b><b><c>no</c></b></a>";
        check(doc, "a/b[c]");
        check(doc, "a/b[c = 'yes']");
        check(doc, "a/b[not(c)]");
        check(doc, "a/b[c and d]");
        check(doc, "a/b[c or d]");
        check(doc, "a/b[text() = 'yes']");
    }

    #[test]
    fn agrees_on_nested_predicates() {
        let doc = "<a><b><c><d>v</d></c></b><b><c><e/></c></b></a>";
        check(doc, "a/b[c[d]]");
        check(doc, "a/b[c[not(d)]]");
        check(doc, "a/b[c/d = 'v']");
        check(doc, "//b[c[d = 'v' or e]]");
    }

    #[test]
    fn agrees_on_paper_q0() {
        let xml = "<hospital>\
               <patient><pname>Ann</pname>\
                 <visit><treatment><test>blood</test></treatment><date>d1</date></visit>\
                 <visit><treatment><medication>headache</medication></treatment><date>d2</date></visit>\
               </patient>\
               <patient><pname>Cat</pname>\
                 <parent><patient><pname>Dan</pname>\
                   <visit><treatment><test>x-ray</test></treatment><date>d4</date></visit>\
                 </patient></parent>\
                 <visit><treatment><medication>headache</medication></treatment><date>d5</date></visit>\
               </patient>\
             </hospital>";
        check(
            xml,
            "hospital/patient[(parent/patient)*/visit/treatment/test and \
             visit/treatment[medication/text() = 'headache']]/pname",
        );
    }

    /// Thue–Morse anti-hash pair: for any odd base B, the length-2^k
    /// Thue–Morse string over {a, b} and its complement have equal
    /// wrapping 64-bit polynomial hashes once the 2-adic valuation of
    /// prod_{j<k} (B^(2^j) - 1) reaches 64 — for B = 1_000_003 that
    /// happens at k = 10 (length 1024).
    fn thue_morse_collision_pair() -> (String, String) {
        let tm = |even: char, odd: char| -> String {
            (0u32..1024)
                .map(|i| if i.count_ones() % 2 == 0 { even } else { odd })
                .collect()
        };
        (tm('a', 'b'), tm('b', 'a'))
    }

    #[test]
    fn text_eq_survives_a_real_hash_collision() {
        let (t1, t2) = thue_morse_collision_pair();
        assert_ne!(t1, t2);
        // Precondition: the two texts genuinely collide in (len, hash) —
        // without the string confirmation, the evaluator cannot tell them
        // apart, and an access-control predicate would silently pass for
        // the wrong node.
        assert_eq!(hash_str(&t1), hash_str(&t2));
        let xml = format!("<r><x>{t1}</x><x>{t2}</x></r>");
        check(&xml, &format!("r/x[text() = '{t1}']"));
        // And explicitly: exactly ONE x may match.
        let vocab = Vocabulary::new();
        let doc = Document::parse_str(&xml, &vocab).unwrap();
        let path = parse_path(&format!("r/x[text() = '{t1}']"), &vocab).unwrap();
        let mfa = compile(&path, &vocab);
        let (got, _) = evaluate_mfa_twopass(&doc, &mfa);
        assert_eq!(got.len(), 1, "the colliding sibling must not match");
    }

    #[test]
    fn split_direct_text_confirms_across_child_elements() {
        // Direct text "xy" is split around <c/>: the confirmation walk
        // must concatenate the pieces exactly like the hash did.
        check("<a><b>x<c>NO</c>y</b><b>xy</b></a>", "a/b[text() = 'xy']");
        check("<a><b>x<c>NO</c>y</b></a>", "a/b[text() = 'x']");
    }

    #[test]
    fn reports_table_memory() {
        let vocab = Vocabulary::new();
        let doc = Document::parse_str("<a><b><c/></b></a>", &vocab).unwrap();
        let path = parse_path("a/b[c]", &vocab).unwrap();
        let mfa = compile(&path, &vocab);
        let (_, report) = evaluate_mfa_twopass_report(&doc, &mfa);
        assert!(report.table_bytes > 0);
    }
}
