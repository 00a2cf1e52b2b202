//! HyPE in StAX mode: evaluate an MFA in one sequential scan.
//!
//! Paper §2: *"in StAX mode the document does not need to be loaded into
//! memory and only one sequential scan of the document from disk is needed
//! for the evaluation"*. The same [`Machine`](crate::machine::Machine)
//! core runs over pull-parser events; differences from DOM mode:
//!
//! * node ids are assigned by a document-order counter that mirrors
//!   [`smoqe_xml::TreeBuilder`]'s numbering (adjacent text events are
//!   coalesced into one id, exactly like the builder merges them), so
//!   stream answers are directly comparable to DOM answers;
//! * `text()='c'` predicates accumulate character data until their origin
//!   element closes;
//! * subtrees whose runs all died are skipped *logically* (the events are
//!   still read — it is a sequential scan — but no automaton work is
//!   done);
//! * answers can be emitted as serialized XML: candidate subtrees are
//!   buffered while their predicates are pending and emitted or discarded
//!   on resolution — the memory HyPE needs beyond the parser is
//!   O(depth + buffered candidates), which experiment E4 measures.
//!
//! The driver itself lives in [`crate::batch`]: a single-plan evaluation
//! is the 1-lane special case of the batched evaluator, so both paths
//! share one implementation.

use crate::batch::{evaluate_batch_stream, evaluate_batch_stream_plans_budgeted};
use crate::budget::{DriverError, WorkBudget};
use crate::observer::EvalObserver;
use crate::stats::EvalStats;
use smoqe_automata::compile::CompiledMfa;
use smoqe_automata::Mfa;
use smoqe_xml::{Vocabulary, XmlError};
use std::io::BufRead;

/// Result of a streaming evaluation.
#[derive(Debug)]
pub struct StreamOutcome {
    /// Answer node ids (document-order numbering, matching DOM NodeIds).
    pub answers: Vec<u32>,
    /// Serialized answer subtrees in document order (when requested).
    pub answer_xml: Option<Vec<String>>,
    /// Evaluation statistics.
    pub stats: EvalStats,
    /// Peak bytes buffered for unresolved candidates.
    pub peak_buffered_bytes: usize,
    /// Total parser events processed.
    pub events: usize,
}

/// Options for streaming evaluation.
#[derive(Clone, Copy, Debug, Default)]
pub struct StreamOptions {
    /// Buffer and return the serialized XML of each answer subtree.
    pub want_xml: bool,
}

/// Evaluates `mfa` over the XML text arriving from `reader` (compiling
/// the plan on the fly).
pub fn evaluate_stream<R: BufRead>(
    reader: R,
    mfa: &Mfa,
    vocab: &Vocabulary,
    options: StreamOptions,
) -> Result<StreamOutcome, XmlError> {
    let out = evaluate_batch_stream(reader, &[mfa], vocab, options)?;
    Ok(out
        .outcomes
        .into_iter()
        .next()
        .expect("one plan in, one outcome out"))
}

/// Evaluates `mfa` over a string slice (convenience).
pub fn evaluate_stream_str(
    input: &str,
    mfa: &Mfa,
    vocab: &Vocabulary,
    options: StreamOptions,
) -> Result<StreamOutcome, XmlError> {
    evaluate_stream(input.as_bytes(), mfa, vocab, options)
}

/// Evaluates a precompiled plan under a [`WorkBudget`] (the 1-lane
/// special case of [`evaluate_batch_stream_plans_budgeted`]): the scan
/// checks the budget once per parser event and abandons with the partial
/// counters when the deadline passes or the cancel token flips.
pub fn evaluate_stream_plan_budgeted<R: BufRead>(
    reader: R,
    plan: &CompiledMfa,
    vocab: &Vocabulary,
    options: StreamOptions,
    observer: &mut dyn EvalObserver,
    budget: &WorkBudget,
) -> Result<StreamOutcome, DriverError> {
    let mut observers: [&mut dyn EvalObserver; 1] = [observer];
    let out = evaluate_batch_stream_plans_budgeted(
        reader,
        &[(plan, options)],
        vocab,
        &mut observers,
        budget,
    )?;
    Ok(out
        .outcomes
        .into_iter()
        .next()
        .expect("one plan in, one outcome out"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dom::evaluate_mfa;
    use smoqe_automata::compile;
    use smoqe_rxpath::parse_path;
    use smoqe_xml::Document;

    fn check(xml: &str, query: &str) -> StreamOutcome {
        let vocab = Vocabulary::new();
        let doc = Document::parse_str(xml, &vocab).unwrap();
        let path = parse_path(query, &vocab).unwrap();
        let mfa = compile(&path, &vocab);
        let (dom_answers, _) = evaluate_mfa(&doc, &mfa);
        let out = evaluate_stream_str(xml, &mfa, &vocab, StreamOptions { want_xml: true }).unwrap();
        let dom_ids: Vec<u32> = dom_answers.iter().map(|n| n.0).collect();
        assert_eq!(out.answers, dom_ids, "query `{query}` on `{xml}`");
        // The serialized answers must match DOM subtree serialization.
        let xmls = out.answer_xml.as_ref().unwrap();
        for (i, n) in dom_answers.iter().enumerate() {
            assert_eq!(
                xmls[i],
                smoqe_xml::serialize::subtree_to_string(&doc, n),
                "answer {i} of `{query}`"
            );
        }
        out
    }

    #[test]
    fn stream_matches_dom_simple() {
        check("<a><b>1</b><c>2</c><b>3</b></a>", "a/b");
        check("<a><b/><c/></a>", "a/*");
        check("<a><b/></a>", "zzz");
    }

    #[test]
    fn stream_matches_dom_descendants() {
        check("<a><b><c>x</c></b><c>y</c></a>", "//c");
        check("<a><b><a><b><a/></b></a></b></a>", "(a/b)*/a");
    }

    #[test]
    fn stream_matches_dom_predicates() {
        let doc = "<a><b><c>yes</c></b><b><d/></b><b><c>no</c></b></a>";
        check(doc, "a/b[c]");
        check(doc, "a/b[c = 'yes']");
        check(doc, "a/b[not(c)]");
        check(doc, "a/b[text() = 'yes']");
    }

    #[test]
    fn text_accumulation_uses_direct_text() {
        // Direct text of the first b is "xy" (around <c/>); text inside
        // children does not count.
        check(
            "<a><b>x<c>NO</c>y</b><b><c>xy</c></b></a>",
            "a/b[text() = 'xy']",
        );
        check("<a><b>x<c>NO</c>y</b></a>", "a/b[text() = 'xNOy']");
    }

    #[test]
    fn buffered_candidate_discarded_on_false_predicate() {
        let out = check("<a><b><x/><w0/></b><b><x/></b></a>", "a/b[w]/x");
        assert_eq!(out.answers.len(), 0);
    }

    #[test]
    fn buffered_candidate_kept_on_true_predicate() {
        let out = check("<a><b><x/><w/></b><b><x/></b></a>", "a/b[w]/x");
        assert_eq!(out.answers.len(), 1);
        assert_eq!(out.answer_xml.unwrap()[0], "<x/>");
    }

    #[test]
    fn paper_q0_streams() {
        let xml = "<hospital>\
               <patient><pname>Ann</pname>\
                 <visit><treatment><test>blood</test></treatment><date>d1</date></visit>\
                 <visit><treatment><medication>headache</medication></treatment><date>d2</date></visit>\
               </patient>\
               <patient><pname>Bob</pname>\
                 <visit><treatment><medication>headache</medication></treatment><date>d3</date></visit>\
               </patient>\
             </hospital>";
        let out = check(
            xml,
            "hospital/patient[(parent/patient)*/visit/treatment/test and \
             visit/treatment[medication/text() = 'headache']]/pname",
        );
        assert_eq!(out.answer_xml.unwrap(), vec!["<pname>Ann</pname>"]);
    }

    #[test]
    fn nested_candidates_both_recorded() {
        let out = check("<a><b><b/></b></a>", "//b");
        assert_eq!(out.answers.len(), 2);
        let xmls = out.answer_xml.unwrap();
        assert_eq!(xmls[0], "<b><b/></b>");
        assert_eq!(xmls[1], "<b/>");
    }

    #[test]
    fn malformed_input_propagates_error() {
        let vocab = Vocabulary::new();
        let p = parse_path("a", &vocab).unwrap();
        let mfa = compile(&p, &vocab);
        assert!(evaluate_stream_str("<a><b></a>", &mfa, &vocab, StreamOptions::default()).is_err());
    }

    #[test]
    fn event_count_reported() {
        let out = check("<a><b/><b/></a>", "a/b");
        assert_eq!(out.events, 7); // a, b, /b, b, /b, /a, end
    }

    #[test]
    fn cdata_split_text_keeps_node_ids_aligned_with_dom() {
        // `a<![CDATA[&]]>b` arrives as three Text events but is ONE text
        // node in the DOM builder; node ids of later elements must agree.
        check("<r><b>a<![CDATA[&]]>b</b><c/></r>", "r/c");
        // The accumulated text must also satisfy text()='c' as one value.
        check(
            "<r><b>a<![CDATA[&]]>b</b><b>x</b></r>",
            "r/b[text() = 'a&b']",
        );
        check(
            "<r><b><![CDATA[one]]><![CDATA[two]]></b><c/><b>onetwo</b></r>",
            "r/b[text() = 'onetwo']",
        );
    }

    #[test]
    fn entity_references_in_text_agree_with_dom() {
        check("<r><b>a&amp;b</b><c/></r>", "r/b[text() = 'a&b']");
        check("<r><b>a&amp;b</b><c/></r>", "r/c");
        check("<r><b>x&#65;y</b><c/></r>", "r/b[text() = 'xAy']");
    }
}
