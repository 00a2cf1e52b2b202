//! DOM-mode parsing: one scanner pass into a span-based [`Document`].
//!
//! This is the paper's "DOM mode" loading path (§2): "the whole document
//! tree will be loaded into memory in order to evaluate a query". The
//! input is held once as a shared `Arc<str>` buffer; a single
//! [`crate::scanner::Scanner`] pass (the same tokenizer StAX mode uses, so
//! DOM and StAX modes agree on what a document contains by construction)
//! drives a [`ScanSink`] that records compact span nodes referencing the
//! buffer — no per-node owned strings.

use crate::error::XmlError;
use crate::label::Vocabulary;
use crate::scanner::{scan, AttrSpan, Attribute, ScanSink, Scanner, TextPiece};
use crate::tree::{Document, TreeBuilder};
use std::io::BufRead;
use std::path::Path;
use std::sync::Arc;

/// Parses a complete document from a string (copied once into the
/// document's shared buffer).
pub fn parse_document(input: &str, vocab: &Vocabulary) -> Result<Document, XmlError> {
    parse_buffer(Arc::from(input), vocab)
}

/// Parses a complete document from an already-shared buffer, which the
/// returned document's span nodes reference without copying.
pub fn parse_buffer(buffer: Arc<str>, vocab: &Vocabulary) -> Result<Document, XmlError> {
    if buffer.len() > u32::MAX as usize {
        return Err(XmlError::Malformed(
            "document exceeds the 4 GB span-offset limit".to_string(),
        ));
    }
    let mut scanner = Scanner::from_str(&buffer);
    let mut sink = DomSink {
        builder: TreeBuilder::with_buffer(vocab.clone(), buffer.clone()),
    };
    scan(&mut scanner, &mut sink)?;
    sink.builder.finish()
}

/// Parses a complete document from any buffered reader (slurped into the
/// document's buffer — DOM mode holds the whole document either way).
pub fn parse_reader<R: BufRead>(mut reader: R, vocab: &Vocabulary) -> Result<Document, XmlError> {
    let mut input = String::new();
    reader.read_to_string(&mut input)?;
    parse_buffer(Arc::from(input), vocab)
}

/// Parses a document from a file on disk.
pub fn parse_file(path: impl AsRef<Path>, vocab: &Vocabulary) -> Result<Document, XmlError> {
    let input = std::fs::read_to_string(path)?;
    parse_buffer(Arc::from(input), vocab)
}

/// The scanner-to-arena adapter: records spans, interns names, defers
/// entity decoding to first access.
pub(crate) struct DomSink {
    pub(crate) builder: TreeBuilder,
}

impl ScanSink for DomSink {
    fn start_element(
        &mut self,
        name: &str,
        attributes: &[Attribute],
        attr_spans: &[AttrSpan],
        tag_start: u64,
    ) -> Result<(), XmlError> {
        self.builder
            .start_element_named_spanned(name, tag_start as u32);
        for (a, s) in attributes.iter().zip(attr_spans) {
            let span = s
                .clean
                .then_some((s.value_start as u32, s.value_end as u32));
            self.builder.attribute_spanned(&a.name, &a.value, span);
        }
        Ok(())
    }

    fn text(&mut self, piece: TextPiece<'_>) -> Result<(), XmlError> {
        let clean = piece.clean.map(|(s, e)| (s as u32, e as u32));
        self.builder
            .text_piece(piece.decoded, piece.start as u32, piece.end as u32, clean);
        Ok(())
    }

    fn end_element(&mut self, _name: &str, tag_end: u64) -> Result<(), XmlError> {
        self.builder.end_element_spanned(tag_end as u32);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_builds_expected_tree() {
        let vocab = Vocabulary::new();
        let doc = parse_document("<a><b>one</b><b>two</b></a>", &vocab).unwrap();
        let root = doc.root();
        let b = vocab.lookup("b").unwrap();
        let texts: Vec<String> = doc
            .children(root)
            .filter(|&c| doc.label(c) == Some(b))
            .map(|c| doc.string_value(c))
            .collect();
        assert_eq!(texts, vec!["one", "two"]);
    }

    #[test]
    fn parse_error_propagates() {
        let vocab = Vocabulary::new();
        assert!(parse_document("<a><b></a>", &vocab).is_err());
        assert!(parse_document("", &vocab).is_err());
    }

    #[test]
    fn parse_file_round_trip() {
        let vocab = Vocabulary::new();
        let dir = std::env::temp_dir().join("smoqe-xml-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.xml");
        std::fs::write(&path, "<a><b>hi</b></a>").unwrap();
        let doc = parse_file(&path, &vocab).unwrap();
        assert_eq!(doc.to_xml(), "<a><b>hi</b></a>");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn shared_vocabulary_across_documents() {
        let vocab = Vocabulary::new();
        let d1 = parse_document("<a><b/></a>", &vocab).unwrap();
        let d2 = parse_document("<b><a/></b>", &vocab).unwrap();
        // Same names, same labels, regardless of parse order.
        assert_eq!(
            d1.label(d1.root()),
            d2.label(d2.first_child(d2.root()).unwrap())
        );
    }

    #[test]
    fn parsed_documents_share_the_input_buffer() {
        let vocab = Vocabulary::new();
        let src: Arc<str> = Arc::from("<a><b>hi</b></a>");
        let doc = parse_buffer(src.clone(), &vocab).unwrap();
        assert!(Arc::ptr_eq(&src, &doc.shared_buffer()));
        assert_eq!(doc.raw_source(), "<a><b>hi</b></a>");
    }

    #[test]
    fn element_extents_cover_their_tags() {
        let vocab = Vocabulary::new();
        let src = "<a><b x=\"1\">hi</b><c/></a>";
        let doc = parse_document(src, &vocab).unwrap();
        let (rs, re) = doc.node_extent(doc.root());
        assert_eq!(&src[rs..re], src);
        let b = doc.first_child(doc.root()).unwrap();
        let (bs, be) = doc.node_extent(b);
        assert_eq!(&src[bs..be], "<b x=\"1\">hi</b>");
        let c = doc.next_sibling(b).unwrap();
        let (cs, ce) = doc.node_extent(c);
        assert_eq!(&src[cs..ce], "<c/>");
    }

    #[test]
    fn entity_text_decodes_lazily_and_caches() {
        let vocab = Vocabulary::new();
        let doc = parse_document("<a>x &amp; y</a>", &vocab).unwrap();
        assert_eq!(doc.memory_summary().entity_cache_bytes, 0);
        let t = doc.first_child(doc.root()).unwrap();
        assert_eq!(doc.text(t), Some("x & y"));
        assert_eq!(doc.memory_summary().entity_cache_bytes, "x & y".len());
    }
}
