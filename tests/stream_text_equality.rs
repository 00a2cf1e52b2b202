//! `text() = 'v'` on a stream: the machine matches the origin element's
//! direct text against the plan's own literal byte by byte as the text
//! arrives, so the value is never assembled. These cases pin that matcher
//! to the DOM driver's resolver and to the naive reference
//! (`smoqe_rxpath::evaluate`) wherever text reaches the stream in pieces:
//! across the scanner's 64 KiB input chunks (inside a multi-byte
//! character), through entity references and CDATA sections, through
//! tiny reader buffers, and around child elements.

use smoqe_automata::compile;
use smoqe_automata::compile::CompiledMfa;
use smoqe_hype::dom::{evaluate_mfa_plan, DomOptions};
use smoqe_hype::stream::{evaluate_stream_plan_budgeted, StreamOptions};
use smoqe_hype::{ExecMode, NoopObserver, WorkBudget};
use smoqe_rxpath::{evaluate as naive, parse_path};
use smoqe_xml::{Document, Vocabulary};
use std::io::BufReader;

/// Asserts stream ≡ DOM ≡ naive for `query` on `xml` — the stream read
/// from the whole text and through readers handing out 1, 2, 3 and 7
/// bytes at a time — and returns the answers.
fn agree(xml: &str, query: &str) -> Vec<u32> {
    let vocab = Vocabulary::new();
    let doc = Document::parse_str(xml, &vocab).unwrap();
    let path = parse_path(query, &vocab).unwrap();
    let expected: Vec<u32> = naive(&doc, &path).iter().map(|n| n.0).collect();
    let plan = CompiledMfa::compile(&compile(&path, &vocab));
    let (dom, _) = evaluate_mfa_plan(
        &doc,
        &plan,
        &DomOptions { tax: None },
        ExecMode::Compiled,
        &mut NoopObserver,
    );
    let dom: Vec<u32> = dom.iter().map(|n| n.0).collect();
    assert_eq!(dom, expected, "DOM vs naive on `{query}`");
    let stream = |reader: &mut dyn std::io::BufRead| {
        evaluate_stream_plan_budgeted(
            reader,
            &plan,
            &vocab,
            StreamOptions::default(),
            &mut NoopObserver,
            &WorkBudget::unlimited(),
        )
        .unwrap()
        .answers
    };
    assert_eq!(
        stream(&mut xml.as_bytes()),
        expected,
        "stream vs naive on `{query}`"
    );
    for capacity in [1, 2, 3, 7] {
        let mut reader = BufReader::with_capacity(capacity, xml.as_bytes());
        assert_eq!(
            stream(&mut reader),
            expected,
            "stream through {capacity}-byte reads vs naive on `{query}`"
        );
    }
    expected
}

#[test]
fn multi_byte_character_straddling_the_scanner_chunk_boundary() {
    const CHUNK: usize = 64 * 1024;
    for (ch, literal) in [('é', "xéy"), ('€', "x€y"), ('😀', "x😀y")] {
        // Put the character's first byte `back` bytes before the chunk
        // boundary, for every split point inside it.
        for back in 1..ch.len_utf8() {
            let head = "<r><p>";
            let pad = CHUNK - back - head.len() - "</p><b>x".len();
            let xml = format!(
                "{head}{}</p><b>{literal}</b><b>{literal}z</b><b>x</b></r>",
                "a".repeat(pad)
            );
            let at = xml.find(ch).unwrap();
            assert_eq!(at, CHUNK - back, "the character straddles the boundary");
            assert_eq!(agree(&xml, &format!("r/b[text() = '{literal}']")).len(), 1);
            // A strict prefix of the text cannot match it, nor can text
            // running past the literal.
            let prefix: String = literal.chars().take(2).collect();
            assert!(agree(&xml, &format!("r/b[text() = '{prefix}']")).is_empty());
            assert_eq!(
                agree(&xml, &format!("r/b[not(text() = '{literal}')]")).len(),
                2
            );
        }
    }
}

#[test]
fn entity_and_cdata_split_text() {
    let xml = "<r>\
        <b>a&amp;b</b>\
        <b>a<![CDATA[&]]>b</b>\
        <b><![CDATA[on]]>e&#116;wo</b>\
        <b>a&amp;</b>\
        <b>&lt;&gt;</b>\
      </r>";
    assert_eq!(agree(xml, "r/b[text() = 'a&b']").len(), 2);
    assert_eq!(agree(xml, "r/b[text() = 'onetwo']").len(), 1);
    assert_eq!(agree(xml, "r/b[text() = 'a&']").len(), 1);
    assert_eq!(agree(xml, "r/b[text() = '<>']").len(), 1);
    assert_eq!(agree(xml, "r/b[not(text() = 'a&b')]").len(), 3);
}

#[test]
fn text_shorter_or_longer_than_the_literal() {
    let xml = "<r><b>abc</b><b>ab</b><b>abcd</b><b>abd</b><b>xabc</b><b/></r>";
    assert_eq!(agree(xml, "r/b[text() = 'abc']").len(), 1);
    assert_eq!(agree(xml, "r/b[text() = 'ab']").len(), 1);
    assert_eq!(agree(xml, "r/b[text() = 'abcde']").len(), 0);
    assert_eq!(agree(xml, "r/b[text() = 'a']").len(), 0);
}

#[test]
fn empty_literal() {
    let xml = "<r><b/><b></b><b>x</b><b><c>y</c></b><b> </b></r>";
    let empty = agree(xml, "r/b[text() = '']");
    assert!(empty.len() >= 3, "empty and child-only elements match");
    agree(xml, "r/b[not(text() = '')]");
    agree(xml, "r/b[c = '']");
}

#[test]
fn direct_text_interrupted_by_child_elements() {
    let xml = "<r>\
        <b>x<c>NO</c>y</b>\
        <b>x<c/><c>y</c></b>\
        <b>xy<c/></b>\
        <b><c>xy</c></b>\
        <b>x<b>y</b>z</b>\
      </r>";
    assert_eq!(agree(xml, "r/b[text() = 'xy']").len(), 2);
    assert_eq!(agree(xml, "r/b[text() = 'x']").len(), 1);
    assert_eq!(agree(xml, "r/b[text() = 'xz']").len(), 1);
    assert_eq!(agree(xml, "//b[text() = 'y']").len(), 1);
    assert_eq!(agree(xml, "r/b[c = 'xy']").len(), 1);
    agree(xml, "//b[text() = 'xz' or c = 'NO']");
    agree(xml, "//b[text() = 'x' and not(c)]");
}
