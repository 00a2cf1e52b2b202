//! Text renderers: MFAs, annotated document trees, evaluation traces.
//!
//! These are the terminal-friendly stand-ins for the iSMOQE windows
//! (DESIGN.md §4): Fig. 4's automaton view becomes [`mfa_listing`],
//! Fig. 5's evaluation view becomes [`annotated_tree`] over a
//! [`TraceCollector`], and Fig. 6's index view is
//! `smoqe_tax::TaxIndex::summary`.

use crate::trace::{NodeFate, TraceCollector};
use smoqe_automata::{LabelTest, Mfa, Nfa, NfaId, Pred};
use smoqe_xml::{Document, NodeId, Vocabulary};
use std::fmt::Write as _;

/// Renders an MFA as a readable listing: every NFA with its states,
/// transitions and guards, then the predicate table.
pub fn mfa_listing(mfa: &Mfa) -> String {
    let vocab = mfa.vocabulary();
    let mut out = String::new();
    let _ = writeln!(out, "MFA: {}", mfa.stats());
    for (id, nfa) in mfa.nfas() {
        let role = if id == mfa.top() {
            "selection path"
        } else {
            "predicate path"
        };
        let _ = writeln!(
            out,
            "N{} ({role}): start s{}, accept s{}",
            id.0,
            nfa.start().0,
            nfa.accept().0
        );
        for s in nfa.states() {
            for t in nfa.transitions(s) {
                let test = match t.test {
                    LabelTest::Label(l) => vocab.name(l).to_string(),
                    LabelTest::Wildcard => "*".to_string(),
                };
                let _ = writeln!(out, "  s{} --{}--> s{}", s.0, test, t.target.0);
            }
            for e in nfa.eps_edges(s) {
                match e.guard {
                    None => {
                        let _ = writeln!(out, "  s{} ==eps==> s{}", s.0, e.target.0);
                    }
                    Some(g) => {
                        let _ = writeln!(out, "  s{} ==[P{}]==> s{}", s.0, g.0, e.target.0);
                    }
                }
            }
        }
    }
    if mfa.pred_count() > 0 {
        let _ = writeln!(out, "predicates:");
        for (id, p) in mfa.preds() {
            let desc = match p {
                Pred::True => "true".to_string(),
                Pred::TextEq(c) => format!("text() = '{c}'"),
                Pred::HasPath(n) => format!("has-path N{}", n.0),
                Pred::Not(q) => format!("not P{}", q.0),
                Pred::And(qs) => format!(
                    "and({})",
                    qs.iter()
                        .map(|q| format!("P{}", q.0))
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
                Pred::Or(qs) => format!(
                    "or({})",
                    qs.iter()
                        .map(|q| format!("P{}", q.0))
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
            };
            let _ = writeln!(out, "  P{}: {desc}", id.0);
        }
    }
    out
}

fn fate_marker(fate: NodeFate) -> &'static str {
    match fate {
        NodeFate::Untouched => "  ",
        NodeFate::Visited => "v ",
        NodeFate::CandidateRejected => "c-",
        NodeFate::CandidateKept => "A*",
        NodeFate::ImmediateAnswer => "A!",
        NodeFate::PrunedDead => "x-",
        NodeFate::PrunedTax => "xT",
    }
}

/// Renders the document tree with per-node evaluation markers
/// (the Fig. 5 "colors"):
///
/// * `A!` immediate answer, `A*` answer via Cans, `c-` candidate rejected,
/// * `v` visited, `x-` pruned (dead runs), `xT` pruned (TAX), blank =
///   never reached.
pub fn annotated_tree(doc: &Document, trace: &TraceCollector) -> String {
    let vocab = doc.vocabulary();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "legend: A! answer  A* answer(Cans)  c- rejected  v visited  x- dead  xT TAX-pruned"
    );
    render_node(doc, doc.root(), vocab, trace, 0, &mut out);
    out
}

fn render_node(
    doc: &Document,
    node: NodeId,
    vocab: &Vocabulary,
    trace: &TraceCollector,
    depth: usize,
    out: &mut String,
) {
    let marker = fate_marker(trace.fate(node.0));
    let indent = "  ".repeat(depth);
    match doc.label(node) {
        Some(l) => {
            let _ = writeln!(out, "{marker} {indent}<{}> (n{})", vocab.name(l), node.0);
            for c in doc.children(node) {
                render_node(doc, c, vocab, trace, depth + 1, out);
            }
        }
        None => {
            let text = doc.text(node).unwrap_or_default();
            let short: String = text.chars().take(24).collect();
            let _ = writeln!(out, "{marker} {indent}\"{short}\"");
        }
    }
}

/// A step-by-step textual log of the evaluation (the "window into the
/// blackbox of query processing").
pub fn trace_log(trace: &TraceCollector, vocab: &Vocabulary) -> String {
    use crate::trace::TraceEvent::*;
    let mut out = String::new();
    for e in &trace.events {
        let line = match e {
            Enter { node, label, depth } => format!(
                "{}enter <{}> (n{node})",
                "  ".repeat(*depth),
                vocab.name(*label)
            ),
            Leave { node } => format!("leave n{node}"),
            Pruned { node, reason } => format!("prune subtree at n{node} ({reason:?})"),
            Candidate { node, immediate } => {
                if *immediate {
                    format!("answer n{node} (immediate)")
                } else {
                    format!("candidate n{node} -> Cans")
                }
            }
            InstanceSpawned { inst, node } => format!("spawn predicate instance #{inst} @ n{node}"),
            InstanceResolved { inst, value } => format!("instance #{inst} = {value}"),
            CandidateResolved { node, kept } => {
                format!("Cans: n{node} {}", if *kept { "kept" } else { "dropped" })
            }
        };
        let _ = writeln!(out, "{line}");
    }
    out
}

/// Short textual description of one NFA (used in experiment output).
pub fn nfa_summary(mfa: &Mfa, id: NfaId) -> String {
    let nfa: &Nfa = mfa.nfa(id);
    format!(
        "N{}: {} states, {} transitions, {} eps",
        id.0,
        nfa.state_count(),
        nfa.transition_count(),
        nfa.eps_count()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use smoqe_automata::compile;
    use smoqe_hype::dom::{evaluate_mfa_with, DomOptions};
    use smoqe_rxpath::parse_path;
    use smoqe_xml::Vocabulary;

    fn trace_for(xml: &str, q: &str) -> (Document, TraceCollector, Vocabulary) {
        let vocab = Vocabulary::new();
        let doc = Document::parse_str(xml, &vocab).unwrap();
        let path = parse_path(q, &vocab).unwrap();
        let mfa = compile(&path, &vocab);
        let mut trace = TraceCollector::new();
        evaluate_mfa_with(&doc, &mfa, &DomOptions::default(), &mut trace);
        (doc, trace, vocab)
    }

    #[test]
    fn listing_shows_structure() {
        let vocab = Vocabulary::new();
        let path = parse_path("a/b[c = 'v']", &vocab).unwrap();
        let mfa = compile(&path, &vocab);
        let listing = mfa_listing(&mfa);
        assert!(listing.contains("selection path"));
        assert!(listing.contains("predicate path"));
        assert!(listing.contains("--a-->"));
        assert!(listing.contains("text() = 'v'"));
        assert!(listing.contains("has-path"));
    }

    #[test]
    fn annotated_tree_marks_answers_and_pruning() {
        let (doc, trace, _) = trace_for("<a><z><b/></z><b>t</b></a>", "a/b");
        let tree = annotated_tree(&doc, &trace);
        assert!(tree.contains("A! "), "missing answer marker:\n{tree}");
        assert!(tree.contains("x- "), "missing prune marker:\n{tree}");
        assert!(tree.contains("<a>"));
        assert!(tree.contains("\"t\""));
    }

    #[test]
    fn trace_log_is_chronological() {
        let (_, trace, vocab) = trace_for("<a><b><w/></b></a>", "a/b[w]");
        let log = trace_log(&trace, &vocab);
        let enter_pos = log.find("enter <a>").unwrap();
        let cand_pos = log.find("candidate").unwrap();
        let kept_pos = log.find("kept").unwrap();
        assert!(enter_pos < cand_pos && cand_pos < kept_pos, "{log}");
    }
}
