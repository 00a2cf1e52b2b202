//! XML serialization: documents, subtrees and event streams back to text.
//!
//! The output visualizer of the paper has a "text mode, which presents the
//! answer of the query as a document in XML syntax" (§3); the streaming
//! evaluator also needs to emit buffered candidate subtrees as XML. Both go
//! through [`XmlWriter`], an event-driven writer. Document subtrees — the
//! answers the engine serves — are written by [`write_subtree_into`],
//! which appends straight into a `String` and produces the same bytes
//! [`XmlWriter`] would; [`to_string`] / [`subtree_to_string`] are
//! conveniences on top of it.

use crate::error::XmlError;
use crate::tree::{Document, NodeId, NodeKind};
use std::convert::Infallible;
use std::io::Write;

/// Escapes character data (`&`, `<`, `>`).
pub fn escape_text(text: &str, out: &mut String) {
    // Fast path: nothing to escape (the common case for span-backed text).
    if !text.bytes().any(|b| matches!(b, b'&' | b'<' | b'>')) {
        out.push_str(text);
        return;
    }
    for c in text.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            _ => out.push(c),
        }
    }
}

/// Escapes an attribute value for double-quoted output.
pub fn escape_attr(value: &str, out: &mut String) {
    if !value.bytes().any(|b| matches!(b, b'&' | b'<' | b'"')) {
        out.push_str(value);
        return;
    }
    for c in value.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '"' => out.push_str("&quot;"),
            _ => out.push(c),
        }
    }
}

/// An event-driven XML writer producing well-formed output.
///
/// ```
/// use smoqe_xml::serialize::XmlWriter;
/// let mut out = Vec::new();
/// {
///     let mut w = XmlWriter::new(&mut out);
///     w.start_element("a").unwrap();
///     w.attribute("k", "v").unwrap();
///     w.text("x < y").unwrap();
///     w.end_element().unwrap();
/// }
/// assert_eq!(String::from_utf8(out).unwrap(), r#"<a k="v">x &lt; y</a>"#);
/// ```
pub struct XmlWriter<W: Write> {
    sink: W,
    /// Open element names; `bool` marks "has content" (start tag closed).
    stack: Vec<(String, bool)>,
    /// Indentation string per level; `None` = compact output.
    indent: Option<String>,
    scratch: String,
}

impl<W: Write> XmlWriter<W> {
    /// Compact (no extra whitespace) writer.
    pub fn new(sink: W) -> Self {
        XmlWriter {
            sink,
            stack: Vec::new(),
            indent: None,
            scratch: String::new(),
        }
    }

    /// Pretty-printing writer using `indent` per nesting level.
    pub fn pretty(sink: W, indent: &str) -> Self {
        XmlWriter {
            sink,
            stack: Vec::new(),
            indent: Some(indent.to_string()),
            scratch: String::new(),
        }
    }

    fn close_open_tag(&mut self, newline: bool) -> Result<(), XmlError> {
        if let Some(top) = self.stack.last_mut() {
            if !top.1 {
                top.1 = true;
                self.sink.write_all(b">")?;
                if newline && self.indent.is_some() {
                    self.sink.write_all(b"\n")?;
                }
            }
        }
        Ok(())
    }

    fn write_indent(&mut self, level: usize) -> Result<(), XmlError> {
        if let Some(ind) = &self.indent {
            for _ in 0..level {
                self.sink.write_all(ind.as_bytes())?;
            }
        }
        Ok(())
    }

    /// Opens an element.
    pub fn start_element(&mut self, name: &str) -> Result<(), XmlError> {
        self.close_open_tag(true)?;
        let level = self.stack.len();
        self.write_indent(level)?;
        self.sink.write_all(b"<")?;
        self.sink.write_all(name.as_bytes())?;
        self.stack.push((name.to_string(), false));
        Ok(())
    }

    /// Adds an attribute to the just-opened element.
    ///
    /// Must be called before any content is written into the element.
    pub fn attribute(&mut self, name: &str, value: &str) -> Result<(), XmlError> {
        match self.stack.last() {
            Some((_, false)) => {}
            _ => {
                return Err(XmlError::Malformed(
                    "attribute written after element content".to_string(),
                ))
            }
        }
        self.scratch.clear();
        escape_attr(value, &mut self.scratch);
        write!(self.sink, " {name}=\"{}\"", self.scratch)?;
        Ok(())
    }

    /// Writes character data.
    pub fn text(&mut self, text: &str) -> Result<(), XmlError> {
        if self.stack.is_empty() {
            return Err(XmlError::Malformed("text outside root element".to_string()));
        }
        self.close_open_tag(false)?;
        self.scratch.clear();
        escape_text(text, &mut self.scratch);
        self.sink.write_all(self.scratch.as_bytes())?;
        Ok(())
    }

    /// Closes the most recently opened element.
    pub fn end_element(&mut self) -> Result<(), XmlError> {
        let (name, had_content) = self
            .stack
            .pop()
            .ok_or_else(|| XmlError::Malformed("end_element with no open element".to_string()))?;
        if !had_content {
            self.sink.write_all(b"/>")?;
        } else {
            // Pretty mode: indent the close tag only if children were
            // elements (heuristic: we are at line start after a newline).
            self.sink.write_all(b"</")?;
            self.sink.write_all(name.as_bytes())?;
            self.sink.write_all(b">")?;
        }
        if self.indent.is_some() {
            self.sink.write_all(b"\n")?;
        }
        Ok(())
    }

    /// Flushes the underlying sink.
    pub fn flush(&mut self) -> Result<(), XmlError> {
        self.sink.flush()?;
        Ok(())
    }

    /// Number of currently open elements.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// Shared access to the underlying sink.
    pub fn sink(&self) -> &W {
        &self.sink
    }

    /// Mutable access to the underlying sink (e.g. to take the buffer of a
    /// `Vec<u8>`-backed writer once writing is complete).
    pub fn sink_mut(&mut self) -> &mut W {
        &mut self.sink
    }
}

/// Appends the compact serialization of the subtree rooted at `node` to
/// `out` — the bytes [`XmlWriter`] would write for it: tag names from the
/// document's vocabulary, attributes double-quoted with [`escape_attr`],
/// text through [`escape_text`] (whose scan copies a text with nothing to
/// escape as-is), and `/>` for an element without children.
///
/// `tick` is called once per node written; its first `Err` stops the
/// walk and is returned (the answer writer meters a request's budget
/// with it). The walk follows the tree's parent and sibling links, so it
/// allocates nothing beyond the growth of `out` and serializes
/// arbitrarily deep documents without recursion.
pub fn write_subtree_into<E>(
    doc: &Document,
    node: NodeId,
    out: &mut String,
    mut tick: impl FnMut() -> Result<(), E>,
) -> Result<(), E> {
    let mut at = node;
    loop {
        tick()?;
        match *doc.kind(at) {
            NodeKind::Text(_) => escape_text(doc.text(at).expect("text node has text"), out),
            NodeKind::Element(label) => {
                out.push('<');
                out.push_str(doc.label_name(label));
                for (name, value) in doc.attributes(at) {
                    out.push(' ');
                    out.push_str(name);
                    out.push_str("=\"");
                    escape_attr(value, out);
                    out.push('"');
                }
                if let Some(child) = doc.first_child(at) {
                    out.push('>');
                    at = child;
                    continue;
                }
                out.push_str("/>");
            }
        }
        // `at` is written: go on with its next sibling, closing every
        // ancestor whose last child it was, up to `node`.
        loop {
            if at == node {
                return Ok(());
            }
            if let Some(sibling) = doc.next_sibling(at) {
                at = sibling;
                break;
            }
            at = doc.parent(at).expect("a node below `node` has a parent");
            out.push_str("</");
            out.push_str(doc.name(at).expect("a parent is an element"));
            out.push('>');
        }
    }
}

/// Serializes a whole document to a compact XML string.
pub fn to_string(doc: &Document) -> String {
    subtree_to_string(doc, doc.root())
}

/// Serializes the subtree rooted at `node` to a compact XML string: the
/// raw source subtree, as an administrator's answer is served
/// ([`write_subtree_into`] into a fresh `String`).
pub fn subtree_to_string(doc: &Document, node: NodeId) -> String {
    let mut out = String::new();
    let Ok(()) = write_subtree_into(doc, node, &mut out, || Ok::<_, Infallible>(()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::Vocabulary;

    #[test]
    fn round_trip_compact() {
        let vocab = Vocabulary::new();
        let src = r#"<a k="v &amp; w"><b>x &lt; y</b><c/></a>"#;
        let doc = Document::parse_str(src, &vocab).unwrap();
        assert_eq!(to_string(&doc), src);
    }

    #[test]
    fn subtree_serialization() {
        let vocab = Vocabulary::new();
        let doc = Document::parse_str("<a><b>hi</b><c/></a>", &vocab).unwrap();
        let b = doc.first_child(doc.root()).unwrap();
        assert_eq!(subtree_to_string(&doc, b), "<b>hi</b>");
    }

    #[test]
    fn writer_rejects_late_attributes() {
        let mut out = Vec::new();
        let mut w = XmlWriter::new(&mut out);
        w.start_element("a").unwrap();
        w.text("x").unwrap();
        assert!(w.attribute("k", "v").is_err());
    }

    #[test]
    fn writer_rejects_unbalanced_end() {
        let mut out = Vec::new();
        let mut w = XmlWriter::new(&mut out);
        assert!(w.end_element().is_err());
    }

    #[test]
    fn escaping_everything() {
        let mut s = String::new();
        escape_text("a<b>&c", &mut s);
        assert_eq!(s, "a&lt;b&gt;&amp;c");
        let mut s = String::new();
        escape_attr("say \"hi\" & <go>", &mut s);
        assert_eq!(s, "say &quot;hi&quot; &amp; &lt;go>");
    }

    /// Drives `w` with the events of the subtree at `node`.
    fn write_events<W: Write>(doc: &Document, node: NodeId, w: &mut XmlWriter<W>) {
        match doc.kind(node) {
            NodeKind::Element(l) => {
                w.start_element(doc.label_name(*l)).unwrap();
                for (name, value) in doc.attributes(node) {
                    w.attribute(name, value).unwrap();
                }
                for child in doc.children(node) {
                    write_events(doc, child, w);
                }
                w.end_element().unwrap();
            }
            NodeKind::Text(_) => w.text(doc.text(node).unwrap()).unwrap(),
        }
    }

    #[test]
    fn pretty_output_parses_back_equal() {
        let vocab = Vocabulary::new();
        let doc = Document::parse_str("<a><b>hi</b><c><d/></c></a>", &vocab).unwrap();
        let mut out = Vec::new();
        {
            let mut w = XmlWriter::pretty(&mut out, "  ");
            write_events(&doc, doc.root(), &mut w);
        }
        let pretty = String::from_utf8(out).unwrap();
        assert!(pretty.contains('\n'));
        let doc2 = Document::parse_str(&pretty, &vocab).unwrap();
        assert_eq!(to_string(&doc2), to_string(&doc));
    }
}
