//! Batched StAX evaluation: **one document scan serves a whole query
//! batch**.
//!
//! Paper §2 promises that a single query needs only one sequential scan of
//! the document; at serving scale the next bottleneck is that N concurrent
//! queries over the same document still cost N scans. This module
//! amortizes the pass: every pull-parser event is fed to every live
//! [`Machine`] (one per compiled plan — the plans may belong to different
//! user groups, i.e. be rewritten through different security views), the
//! document-order node counter and the event stream are shared, and each
//! machine independently suspends work below subtrees where all of *its*
//! runs died (per-machine `skip_from`). The document is parsed exactly
//! once regardless of batch size — [`BatchOutcome::events`] is the proof.
//!
//! The single-query driver in [`crate::stream`] is the 1-plan special case
//! of this driver, so both paths share one implementation (and one set of
//! parity guarantees against DOM mode, e.g. coalescing of character data
//! split across CDATA/entity boundaries).

use crate::budget::{DriverError, EvalInterrupt, WorkBudget};
use crate::machine::Machine;
use crate::observer::{EvalObserver, NoopObserver};
use crate::stats::EvalStats;
use crate::stream::{StreamOptions, StreamOutcome};
use smoqe_automata::compile::CompiledMfa;
use smoqe_automata::Mfa;
use smoqe_xml::serialize::XmlWriter;
use smoqe_xml::stax::{PullParser, RawEvent};
use smoqe_xml::{Attribute, Label, Vocabulary, XmlError};
use std::collections::HashMap;
use std::io::BufRead;

/// Result of a batched streaming evaluation.
#[derive(Debug)]
pub struct BatchOutcome {
    /// One outcome per plan, in input order. Every outcome's `events`
    /// field equals [`BatchOutcome::events`]: the scan was shared.
    pub outcomes: Vec<StreamOutcome>,
    /// Parser events processed by the single shared scan of the document.
    pub events: usize,
}

/// Buffers one candidate subtree while its predicates are pending.
struct Recorder {
    node: u32,
    depth: usize,
    writer: XmlWriter<Vec<u8>>,
    done: bool,
}

/// Per-plan evaluation state riding the shared scan.
struct Lane<'a> {
    machine: Machine<'a>,
    options: StreamOptions,
    /// When `Some(d)`: automaton work suspended for the subtree opened at
    /// depth d — all of *this* lane's runs are dead there. Other lanes
    /// keep working; the events are read either way (sequential scan).
    skip_from: Option<usize>,
    recorders: Vec<Recorder>,
    finished_xml: HashMap<u32, String>,
    peak_buffered: usize,
}

impl<'a> Lane<'a> {
    fn new(plan: &'a CompiledMfa, options: StreamOptions) -> Self {
        Lane {
            machine: Machine::new(plan, None),
            options,
            skip_from: None,
            recorders: Vec::new(),
            finished_xml: HashMap::new(),
            peak_buffered: 0,
        }
    }

    fn on_start(
        &mut self,
        name: &str,
        attributes: &[Attribute],
        label: Option<Label>,
        node: u32,
        depth: usize,
        observer: &mut dyn EvalObserver,
    ) -> Result<(), XmlError> {
        if self.options.want_xml {
            for r in self.recorders.iter_mut().filter(|r| !r.done) {
                r.writer.start_element(name)?;
                for a in attributes {
                    r.writer.attribute(&a.name, &a.value)?;
                }
            }
        }
        if self.skip_from.is_some() {
            return Ok(());
        }
        let label = label.expect("label interned whenever a lane is live");
        let alive = self.machine.enter(label, node, observer);
        if let Some((cand, _immediate)) = self.machine.take_last_candidate() {
            if self.options.want_xml {
                let mut w = XmlWriter::new(Vec::new());
                w.start_element(name)?;
                for a in attributes {
                    w.attribute(&a.name, &a.value)?;
                }
                self.recorders.push(Recorder {
                    node: cand,
                    depth,
                    writer: w,
                    done: false,
                });
            }
        }
        if !alive && !self.machine.has_open_texteq() && self.recorders.iter().all(|r| r.done) {
            self.skip_from = Some(depth);
        }
        Ok(())
    }

    fn on_text(&mut self, content: &str) -> Result<(), XmlError> {
        if self.options.want_xml {
            for r in self.recorders.iter_mut().filter(|r| !r.done) {
                r.writer.text(content)?;
            }
        }
        if self.skip_from.is_none() {
            self.machine.text(content);
        }
        Ok(())
    }

    fn on_end(&mut self, depth: usize, observer: &mut dyn EvalObserver) -> Result<(), XmlError> {
        if self.options.want_xml {
            let mut newly_done = false;
            for r in self.recorders.iter_mut().filter(|r| !r.done) {
                r.writer.end_element()?;
                if r.depth == depth {
                    r.done = true;
                    newly_done = true;
                }
            }
            let buffered: usize = self.recorders.iter().map(|r| r.writer.sink().len()).sum();
            let finished: usize = self.finished_xml.values().map(String::len).sum();
            self.peak_buffered = self.peak_buffered.max(buffered + finished);
            if newly_done {
                let finished_xml = &mut self.finished_xml;
                self.recorders.retain_mut(|r| {
                    if r.done {
                        let bytes = std::mem::take(r.writer.sink_mut());
                        finished_xml.insert(
                            r.node,
                            String::from_utf8(bytes).expect("writer emits UTF-8"),
                        );
                        false
                    } else {
                        true
                    }
                });
            }
        }
        match self.skip_from {
            Some(d) if d == depth => {
                self.skip_from = None;
                self.machine.leave(observer);
            }
            Some(_) => {}
            None => self.machine.leave(observer),
        }
        Ok(())
    }

    fn finish(mut self, events: usize, observer: &mut dyn EvalObserver) -> StreamOutcome {
        let (answers, mut stats) = self.machine.end(observer);
        stats.answers = answers.len();
        let answer_xml = if self.options.want_xml {
            Some(
                answers
                    .iter()
                    .map(|n| self.finished_xml.remove(n).unwrap_or_default())
                    .collect(),
            )
        } else {
            None
        };
        StreamOutcome {
            answers,
            answer_xml,
            stats,
            peak_buffered_bytes: self.peak_buffered,
            events,
        }
    }
}

/// Evaluates all `plans` over the XML text arriving from `reader` in one
/// sequential scan (compiling each plan on the fly; the engine calls
/// [`evaluate_batch_stream_plans_budgeted`] with cached compiled plans).
pub fn evaluate_batch_stream<R: BufRead>(
    reader: R,
    plans: &[&Mfa],
    vocab: &Vocabulary,
    options: StreamOptions,
) -> Result<BatchOutcome, XmlError> {
    let compiled: Vec<CompiledMfa> = plans.iter().map(|&mfa| CompiledMfa::compile(mfa)).collect();
    let lanes: Vec<(&CompiledMfa, StreamOptions)> =
        compiled.iter().map(|plan| (plan, options)).collect();
    let mut observers: Vec<NoopObserver> = plans.iter().map(|_| NoopObserver).collect();
    let mut dyns: Vec<&mut dyn EvalObserver> = observers
        .iter_mut()
        .map(|o| o as &mut dyn EvalObserver)
        .collect();
    match evaluate_batch_stream_plans_budgeted(
        reader,
        &lanes,
        vocab,
        &mut dyns,
        &WorkBudget::unlimited(),
    ) {
        Ok(out) => Ok(out),
        Err(DriverError::Xml(e)) => Err(e),
        Err(DriverError::Interrupted(_)) => unreachable!("an unlimited budget never interrupts"),
    }
}

/// Evaluates all `plans` over a string slice (convenience).
pub fn evaluate_batch_stream_str(
    input: &str,
    plans: &[&Mfa],
    vocab: &Vocabulary,
    options: StreamOptions,
) -> Result<BatchOutcome, XmlError> {
    evaluate_batch_stream(input.as_bytes(), plans, vocab, options)
}

/// The shared driver — one parser, one event loop, N lanes — and what the
/// engine's stream path calls: plans come straight from the shared plan
/// cache (no per-request analysis or table construction happens here),
/// each rides the scan with its own [`StreamOptions`] (e.g. only some of
/// the batch's answers need their XML buffered) and its own observer.
///
/// The scan checks the [`WorkBudget`] once per parser event and abandons
/// every lane with the merged partial counters when the deadline passes
/// or the cancel token flips. Abandonment drops the parser and all
/// lane-local machines and buffers — nothing shared is touched.
///
/// # Panics
/// Panics if `observers.len() != plans.len()`.
pub fn evaluate_batch_stream_plans_budgeted<R: BufRead>(
    reader: R,
    plans: &[(&CompiledMfa, StreamOptions)],
    vocab: &Vocabulary,
    observers: &mut [&mut dyn EvalObserver],
    budget: &WorkBudget,
) -> Result<BatchOutcome, DriverError> {
    assert_eq!(
        plans.len(),
        observers.len(),
        "one observer per plan in the batch"
    );
    let mut lanes: Vec<Lane> = plans
        .iter()
        .map(|&(plan, options)| Lane::new(plan, options))
        .collect();
    let mut parser = PullParser::new(reader);
    for (lane, obs) in lanes.iter_mut().zip(observers.iter_mut()) {
        lane.machine.begin(&mut **obs);
    }

    let mut meter = budget.meter();
    let mut next_id: u32 = 0;
    let mut depth: usize = 0;
    let mut events: usize = 0;
    // Adjacent Text events (character data split across CDATA sections or
    // entity references) form ONE text node in the DOM builder, so only
    // the first event of a run may consume a node id — otherwise stream
    // node ids drift from DOM NodeIds.
    let mut in_text_run = false;

    loop {
        // Borrowed events: the parser reuses its scratch buffers, so the
        // whole scan performs no per-event allocation.
        if let Some(kind) = meter.tick() {
            let mut stats = EvalStats::default();
            for lane in lanes.iter_mut() {
                stats.merge(lane.machine.stats_mut());
            }
            return Err(DriverError::Interrupted(EvalInterrupt { kind, stats }));
        }
        let event = parser.next_raw()?;
        events += 1;
        match event {
            RawEvent::StartElement { name, attributes } => {
                in_text_run = false;
                let node = next_id;
                next_id += 1;
                depth += 1;
                // Interning takes a shared lock on the vocabulary; inside
                // a subtree every lane is skipping, no automaton needs the
                // label, so keep the skip path lock-free.
                let label = if lanes.iter().any(|l| l.skip_from.is_none()) {
                    Some(vocab.intern(name))
                } else {
                    None
                };
                for (lane, obs) in lanes.iter_mut().zip(observers.iter_mut()) {
                    lane.on_start(name, attributes, label, node, depth, &mut **obs)?;
                }
            }
            RawEvent::Text(t) => {
                if !in_text_run {
                    next_id += 1; // text nodes occupy an id, like in DOM mode
                    in_text_run = true;
                }
                for lane in lanes.iter_mut() {
                    lane.on_text(t)?;
                }
            }
            RawEvent::EndElement { .. } => {
                in_text_run = false;
                for (lane, obs) in lanes.iter_mut().zip(observers.iter_mut()) {
                    lane.on_end(depth, &mut **obs)?;
                }
                depth -= 1;
            }
            RawEvent::EndDocument => break,
        }
    }
    let mut outcomes = Vec::with_capacity(lanes.len());
    for (lane, obs) in lanes.into_iter().zip(observers.iter_mut()) {
        outcomes.push(lane.finish(events, &mut **obs));
    }
    Ok(BatchOutcome { outcomes, events })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dom::evaluate_mfa;
    use smoqe_automata::compile;
    use smoqe_rxpath::parse_path;
    use smoqe_xml::Document;

    fn compile_all(queries: &[&str], vocab: &Vocabulary) -> Vec<Mfa> {
        queries
            .iter()
            .map(|q| compile(&parse_path(q, vocab).unwrap(), vocab))
            .collect()
    }

    /// Batched answers must equal per-query DOM answers, and the scan must
    /// be shared.
    fn check_batch(xml: &str, queries: &[&str]) -> BatchOutcome {
        let vocab = Vocabulary::new();
        let doc = Document::parse_str(xml, &vocab).unwrap();
        let mfas = compile_all(queries, &vocab);
        let plans: Vec<&Mfa> = mfas.iter().collect();
        let out = evaluate_batch_stream_str(xml, &plans, &vocab, StreamOptions { want_xml: true })
            .unwrap();
        assert_eq!(out.outcomes.len(), queries.len());
        for (i, q) in queries.iter().enumerate() {
            let (dom_answers, _) = evaluate_mfa(&doc, &mfas[i]);
            let dom_ids: Vec<u32> = dom_answers.iter().map(|n| n.0).collect();
            assert_eq!(out.outcomes[i].answers, dom_ids, "query `{q}` on `{xml}`");
            let xmls = out.outcomes[i].answer_xml.as_ref().unwrap();
            for (j, n) in dom_answers.iter().enumerate() {
                assert_eq!(
                    xmls[j],
                    smoqe_xml::serialize::subtree_to_string(&doc, n),
                    "answer {j} of `{q}`"
                );
            }
            assert_eq!(out.outcomes[i].events, out.events, "shared scan");
        }
        out
    }

    #[test]
    fn batch_matches_dom_per_query() {
        check_batch(
            "<a><b>1</b><c>2</c><b>3</b></a>",
            &["a/b", "a/c", "a/*", "//b", "zzz"],
        );
    }

    #[test]
    fn batch_with_predicates_and_closure() {
        check_batch(
            "<a><b><c>yes</c></b><b><d/></b><b><c>no</c></b></a>",
            &[
                "a/b[c]",
                "a/b[c = 'yes']",
                "a/b[not(c)]",
                "a/b[text() = 'yes']",
            ],
        );
        check_batch(
            "<a><b><a><b><a/></b></a></b></a>",
            &["(a/b)*/a", "//a", "a/b"],
        );
    }

    #[test]
    fn one_scan_regardless_of_batch_size() {
        let xml = "<a><b>1</b><c>2</c><b>3</b></a>";
        let one = check_batch(xml, &["a/b"]);
        let many = check_batch(xml, &["a/b", "a/c", "//b", "a/*", "zzz", "a/b[c]"]);
        assert_eq!(one.events, many.events, "batching must not re-scan");
    }

    #[test]
    fn per_lane_skipping_is_independent() {
        // Query 0 dies immediately at the root; query 1 must still see
        // everything below it.
        let xml = "<a><b><c/></b><b><c/></b></a>";
        let out = check_batch(xml, &["zzz", "//c"]);
        assert!(out.outcomes[0].answers.is_empty());
        assert_eq!(out.outcomes[1].answers.len(), 2);
    }

    #[test]
    fn empty_batch_still_scans_once() {
        let vocab = Vocabulary::new();
        let out = evaluate_batch_stream_str("<a><b/></a>", &[], &vocab, StreamOptions::default())
            .unwrap();
        assert!(out.outcomes.is_empty());
        assert_eq!(out.events, 5); // a, b, /b, /a, end
    }

    #[test]
    fn expired_deadline_interrupts_the_shared_scan() {
        use crate::budget::{DriverError, Interrupt, WorkBudget};
        use std::time::{Duration, Instant};
        let body: String = (0..200).map(|i| format!("<b>{i}</b>")).collect();
        let xml = format!("<a>{body}</a>");
        let vocab = Vocabulary::new();
        let mfas = compile_all(&["//b", "a/b"], &vocab);
        let compiled: Vec<CompiledMfa> = mfas.iter().map(CompiledMfa::compile).collect();
        let plans: Vec<(&CompiledMfa, StreamOptions)> = compiled
            .iter()
            .map(|p| (p, StreamOptions::default()))
            .collect();
        let mut observers = [NoopObserver, NoopObserver];
        let mut dyns: Vec<&mut dyn EvalObserver> = observers
            .iter_mut()
            .map(|o| o as &mut dyn EvalObserver)
            .collect();
        let budget = WorkBudget {
            deadline: Some(Instant::now() - Duration::from_millis(1)),
            cancel: None,
            check_interval: 16,
        };
        let err = evaluate_batch_stream_plans_budgeted(
            xml.as_bytes(),
            &plans,
            &vocab,
            &mut dyns,
            &budget,
        )
        .expect_err("an already-expired deadline must interrupt");
        match err {
            DriverError::Interrupted(interrupt) => {
                assert_eq!(interrupt.kind, Interrupt::DeadlineExceeded);
                // Two lanes, ticked per event: bounded by one interval of
                // events each.
                assert!(
                    interrupt.stats.nodes_visited <= 2 * 16,
                    "visited {} nodes past an expired deadline",
                    interrupt.stats.nodes_visited
                );
            }
            DriverError::Xml(e) => panic!("expected an interrupt, got parse error {e:?}"),
        }
    }

    #[test]
    fn malformed_input_propagates_error() {
        let vocab = Vocabulary::new();
        let p = parse_path("a", &vocab).unwrap();
        let mfa = compile(&p, &vocab);
        assert!(
            evaluate_batch_stream_str("<a><b></a>", &[&mfa], &vocab, StreamOptions::default())
                .is_err()
        );
    }
}
