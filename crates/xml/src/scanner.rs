//! The one low-level XML tokenizer shared by every consumer.
//!
//! Historically the DOM builder ([`crate::parse`]) and the StAX pull parser
//! ([`crate::stax`]) each carried their own scanning logic; this module is
//! the single SWAR-accelerated scan both are built on, so DOM mode, stream
//! mode and the batched stream driver agree on tokenization *by
//! construction*. [`Scanner`] pulls [`ScanToken`]s on demand; push-style
//! consumers implement [`ScanSink`] and call [`scan`].
//!
//! Every token carries the **byte span** it occupies in the input stream
//! (global offsets, stable across chunked reads), which is what lets the
//! span-based [`crate::tree::Document`] reference the raw buffer instead of
//! copying names and text out of it. Text and attribute-value tokens also
//! report whether their decoded form equals the raw source bytes ("clean"),
//! so entity-free content — the overwhelming majority in data-centric
//! documents — needs no owned copy at all.
//!
//! Supported syntax: elements, attributes (single or double quoted),
//! character data, the five predefined entities plus numeric character
//! references, CDATA sections, comments, processing instructions and a
//! DOCTYPE declaration (with optional internal subset), all of which except
//! elements/text/attributes are skipped.

use crate::error::XmlError;
use std::io::BufRead;

/// A single attribute on an element, as scanned (entities resolved).
///
/// This is the stream-level attribute representation used by
/// [`crate::stax::RawEvent`] / [`crate::stax::XmlEvent`]; the DOM stores
/// attributes more compactly (interned name + value span, see
/// [`crate::tree::Document::attributes`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Attribute {
    /// Attribute name as written.
    pub name: String,
    /// Attribute value with entities resolved.
    pub value: String,
}

/// Source span of an attribute *value* (the bytes between the quotes),
/// parallel to the scanner's attribute list.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AttrSpan {
    /// First byte of the value (just past the opening quote).
    pub value_start: u64,
    /// One past the last byte of the value (the closing quote).
    pub value_end: u64,
    /// Whether the raw value bytes equal the decoded value (no entities).
    pub clean: bool,
}

/// A piece of character data: one chardata run or one CDATA section.
///
/// Adjacent pieces (e.g. text split by a comment or a CDATA boundary)
/// are distinct tokens; tree builders merge them into one text node.
#[derive(Clone, Copy, Debug)]
pub struct TextPiece<'a> {
    /// The decoded text (entities resolved, CDATA unwrapped).
    pub decoded: &'a str,
    /// First byte of the piece in the source (for CDATA: the `<`).
    pub start: u64,
    /// One past the last byte of the piece (for CDATA: past the `]]>`).
    pub end: u64,
    /// A span whose raw bytes equal `decoded` verbatim: the full piece for
    /// entity-free chardata, the inner content for CDATA, `None` when
    /// entities were resolved.
    pub clean: Option<(u64, u64)>,
}

/// A token pulled from the scanner. Borrowed data lives in scanner-owned
/// scratch reused token to token.
#[derive(Debug)]
pub enum ScanToken<'a> {
    /// `<name attr="v" ...>` (also emitted for self-closing elements,
    /// immediately followed by a matching [`ScanToken::EndElement`]).
    StartElement {
        /// Element name as written.
        name: &'a str,
        /// Attributes in source order, entities resolved.
        attributes: &'a [Attribute],
        /// Value spans parallel to `attributes`.
        attr_spans: &'a [AttrSpan],
        /// Offset of the `<` of this start tag.
        tag_start: u64,
    },
    /// One piece of character data.
    Text(TextPiece<'a>),
    /// `</name>` (or the synthetic end of a self-closing tag).
    EndElement {
        /// Element name as written.
        name: &'a str,
        /// One past the `>` that closed this element.
        tag_end: u64,
    },
    /// End of input after the root element closed.
    EndDocument,
}

/// Push-style consumer of a document scan (see [`scan`]).
pub trait ScanSink {
    /// A start tag was scanned.
    fn start_element(
        &mut self,
        name: &str,
        attributes: &[Attribute],
        attr_spans: &[AttrSpan],
        tag_start: u64,
    ) -> Result<(), XmlError>;
    /// A piece of character data was scanned.
    fn text(&mut self, piece: TextPiece<'_>) -> Result<(), XmlError>;
    /// An end tag (possibly synthetic, for self-closing tags) was scanned.
    fn end_element(&mut self, name: &str, tag_end: u64) -> Result<(), XmlError>;
}

/// Drives `scanner` to completion, pushing every token into `sink`.
pub fn scan<R: BufRead, S: ScanSink>(
    scanner: &mut Scanner<R>,
    sink: &mut S,
) -> Result<(), XmlError> {
    loop {
        match scanner.next_token()? {
            ScanToken::StartElement {
                name,
                attributes,
                attr_spans,
                tag_start,
            } => sink.start_element(name, attributes, attr_spans, tag_start)?,
            ScanToken::Text(piece) => sink.text(piece)?,
            ScanToken::EndElement { name, tag_end } => sink.end_element(name, tag_end)?,
            ScanToken::EndDocument => return Ok(()),
        }
    }
}

/// Cap on bytes copied out of the reader per refill. Bounds the scanner's
/// own buffer even when the underlying `BufRead` (e.g. a whole in-memory
/// slice) offers arbitrarily large chunks.
const CHUNK_CAP: usize = 64 * 1024;

/// The streaming tokenizer over any [`BufRead`].
///
/// Never buffers more than the current token, so peak memory is
/// O(token + open-element stack) regardless of document size.
pub struct Scanner<R: BufRead> {
    reader: R,
    /// Current input chunk (copied out of the reader's buffer so scans
    /// can run without holding a borrow of the reader).
    buf: Vec<u8>,
    /// Next unread byte within `buf`.
    pos: usize,
    offset: u64,
    line: u64,
    /// Names of currently open elements (well-formedness checking):
    /// concatenated name bytes plus per-element lengths — no per-element
    /// allocation.
    open_names: Vec<u8>,
    open_lens: Vec<u32>,
    seen_root: bool,
    finished: bool,
    /// Pending EndElement for a self-closing tag.
    pending_end: bool,
    /// Offset just past the `/>` of that self-closing tag.
    pending_end_pos: u64,
    keep_whitespace: bool,
    /// Reusable scratch for the current token's name / text / attributes.
    name_buf: Vec<u8>,
    end_name_buf: Vec<u8>,
    text_buf: Vec<u8>,
    attr_buf: Vec<Attribute>,
    attr_spans: Vec<AttrSpan>,
}

impl Scanner<&[u8]> {
    /// Scans an in-memory string.
    #[allow(clippy::should_implement_trait)] // not fallible-parse semantics
    pub fn from_str(input: &str) -> Scanner<&[u8]> {
        Scanner::new(input.as_bytes())
    }

    /// Scans a **content range** of a larger well-formed document — a run
    /// of sibling nodes (elements, character data, comments, PIs) — as if
    /// it were read inside an already-open element, reporting offsets
    /// from `base` (the range's position in the whole document). The end
    /// of `range` ends the scan ([`ScanToken::EndDocument`]) provided
    /// every element opened in the range was also closed in it.
    ///
    /// The enclosing element is represented by a *nameless* open element:
    /// real names are never empty, so no end tag in the range can close
    /// it, and "exactly the nameless element is open" is what tells the
    /// end of a range from a truncated document.
    pub(crate) fn content_range(range: &str, base: u64) -> Scanner<&[u8]> {
        let mut scanner = Scanner::new(range.as_bytes());
        scanner.offset = base;
        scanner.open_lens.push(0);
        scanner.seen_root = true;
        scanner
    }
}

impl<R: BufRead> Scanner<R> {
    /// Creates a scanner over `reader`. Whitespace-only character data
    /// between elements is skipped by default (see
    /// [`Scanner::keep_whitespace`]).
    pub fn new(reader: R) -> Self {
        Scanner {
            reader,
            buf: Vec::new(),
            pos: 0,
            offset: 0,
            line: 1,
            open_names: Vec::new(),
            open_lens: Vec::new(),
            seen_root: false,
            finished: false,
            pending_end: false,
            pending_end_pos: 0,
            keep_whitespace: false,
            name_buf: Vec::new(),
            end_name_buf: Vec::new(),
            text_buf: Vec::new(),
            attr_buf: Vec::new(),
            attr_spans: Vec::new(),
        }
    }

    /// Controls whether whitespace-only text tokens are reported
    /// (default: `false`, matching data-centric processing).
    pub fn keep_whitespace(mut self, keep: bool) -> Self {
        self.keep_whitespace = keep;
        self
    }

    /// Current nesting depth (number of open elements).
    pub fn depth(&self) -> usize {
        self.open_lens.len()
    }

    /// Bytes consumed so far.
    pub fn byte_offset(&self) -> u64 {
        self.offset
    }

    fn err(&self, msg: impl std::fmt::Display) -> XmlError {
        XmlError::Malformed(format!(
            "{msg} at offset {} (line {})",
            self.offset, self.line
        ))
    }

    /// Replaces the exhausted chunk with the reader's next one. Returns
    /// `false` at end of input. Copying the chunk keeps byte scans free of
    /// any borrow of the reader (one memcpy per chunk, not per byte).
    fn refill(&mut self) -> Result<bool, XmlError> {
        debug_assert!(self.pos >= self.buf.len());
        self.buf.clear();
        self.pos = 0;
        loop {
            match self.reader.fill_buf() {
                Ok(chunk) => {
                    if chunk.is_empty() {
                        return Ok(false);
                    }
                    let n = chunk.len().min(CHUNK_CAP);
                    self.buf.extend_from_slice(&chunk[..n]);
                    self.reader.consume(n);
                    return Ok(true);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(XmlError::Io(e)),
            }
        }
    }

    #[inline]
    fn peek(&mut self) -> Result<Option<u8>, XmlError> {
        if self.pos < self.buf.len() {
            return Ok(Some(self.buf[self.pos]));
        }
        if self.refill()? {
            Ok(Some(self.buf[self.pos]))
        } else {
            Ok(None)
        }
    }

    #[inline]
    fn bump(&mut self) -> Result<Option<u8>, XmlError> {
        let b = self.peek()?;
        if let Some(c) = b {
            self.pos += 1;
            self.offset += 1;
            if c == b'\n' {
                self.line += 1;
            }
        }
        Ok(b)
    }

    /// Bulk-consumes bytes while `pred` holds, appending them to `out`.
    /// Scans whole chunks at a time instead of going byte-by-byte through
    /// `peek`/`bump` — this is what makes the sequential scan IO-bound
    /// rather than dispatch-bound.
    fn take_while_into(
        &mut self,
        out: &mut Vec<u8>,
        pred: impl Fn(u8) -> bool,
    ) -> Result<(), XmlError> {
        loop {
            if self.pos >= self.buf.len() && !self.refill()? {
                return Ok(()); // end of input
            }
            let chunk = &self.buf[self.pos..];
            let n = chunk.iter().position(|&b| !pred(b)).unwrap_or(chunk.len());
            self.consume_into(out, n);
            if self.pos < self.buf.len() {
                return Ok(()); // stopped at a non-matching byte
            }
        }
    }

    /// Bulk-consumes bytes until `a` or `b` is seen, appending them to
    /// `out`. Word-at-a-time (SWAR) search: character data is the bulk of
    /// a document, so this is the single hottest scan of stream mode.
    fn take_until2(&mut self, out: &mut Vec<u8>, a: u8, b: u8) -> Result<(), XmlError> {
        loop {
            if self.pos >= self.buf.len() && !self.refill()? {
                return Ok(());
            }
            let n = memchr2(a, b, &self.buf[self.pos..]);
            self.consume_into(out, n);
            if self.pos < self.buf.len() {
                return Ok(());
            }
        }
    }

    /// Like [`Scanner::take_until2`] with three delimiters (attribute
    /// values stop at the quote, `&`, or `<`).
    fn take_until3(&mut self, out: &mut Vec<u8>, a: u8, b: u8, c: u8) -> Result<(), XmlError> {
        loop {
            if self.pos >= self.buf.len() && !self.refill()? {
                return Ok(());
            }
            let n = memchr3(a, b, c, &self.buf[self.pos..]);
            self.consume_into(out, n);
            if self.pos < self.buf.len() {
                return Ok(());
            }
        }
    }

    #[inline]
    fn consume_into(&mut self, out: &mut Vec<u8>, n: usize) {
        if n == 0 {
            return;
        }
        let consumed = &self.buf[self.pos..self.pos + n];
        out.extend_from_slice(consumed);
        self.line += count_newlines(consumed);
        self.offset += n as u64;
        self.pos += n;
    }

    /// Bulk-skips bytes while `pred` holds.
    fn skip_while(&mut self, pred: impl Fn(u8) -> bool) -> Result<(), XmlError> {
        loop {
            if self.pos >= self.buf.len() && !self.refill()? {
                return Ok(());
            }
            let chunk = &self.buf[self.pos..];
            let n = chunk.iter().position(|&b| !pred(b)).unwrap_or(chunk.len());
            if n > 0 {
                let consumed = &self.buf[self.pos..self.pos + n];
                self.line += count_newlines(consumed);
                self.offset += n as u64;
                self.pos += n;
            }
            if self.pos < self.buf.len() {
                return Ok(());
            }
        }
    }

    fn expect(&mut self, want: u8) -> Result<(), XmlError> {
        match self.bump()? {
            Some(b) if b == want => Ok(()),
            Some(b) => Err(self.err(format_args!(
                "expected '{}', found '{}'",
                want as char, b as char
            ))),
            None => Err(self.err(format_args!(
                "expected '{}', found end of input",
                want as char
            ))),
        }
    }

    fn skip_ws(&mut self) -> Result<(), XmlError> {
        self.skip_while(|b| b.is_ascii_whitespace())
    }

    /// Reads a name into `out` (cleared first). `out` is typically one of
    /// the scanner's scratch buffers, temporarily moved out to satisfy
    /// borrows.
    fn read_name_buf(&mut self, out: &mut Vec<u8>) -> Result<(), XmlError> {
        out.clear();
        // Fast path: the whole name sits inside the current chunk (names
        // contain no newlines, so no line bookkeeping either).
        let start = self.pos;
        let mut i = start;
        while i < self.buf.len() && is_name_byte(self.buf[i]) {
            i += 1;
        }
        out.extend_from_slice(&self.buf[start..i]);
        self.offset += (i - start) as u64;
        self.pos = i;
        if i >= self.buf.len() {
            // The name may continue into the next chunk.
            self.take_while_into(out, is_name_byte)?;
        }
        if out.is_empty() {
            return Err(self.err("expected a name"));
        }
        Ok(())
    }

    fn read_name(&mut self) -> Result<String, XmlError> {
        let mut name = Vec::new();
        self.read_name_buf(&mut name)?;
        self.utf8(name)
    }

    fn utf8(&self, bytes: Vec<u8>) -> Result<String, XmlError> {
        String::from_utf8(bytes).map_err(|_| self.err("invalid UTF-8"))
    }

    /// Reads `&...;` after the '&' has been peeked (not consumed).
    fn read_entity(&mut self, out: &mut Vec<u8>) -> Result<(), XmlError> {
        self.expect(b'&')?;
        let mut ent = String::new();
        loop {
            match self.bump()? {
                Some(b';') => break,
                Some(b) if ent.len() < 16 => ent.push(b as char),
                Some(_) => return Err(self.err("entity reference too long")),
                None => return Err(self.err("unterminated entity reference")),
            }
        }
        match resolve_entity(&ent) {
            Some(c) => {
                let mut tmp = [0u8; 4];
                out.extend_from_slice(c.encode_utf8(&mut tmp).as_bytes());
            }
            None => return Err(self.err(format_args!("unknown entity '&{ent};'"))),
        }
        Ok(())
    }

    /// Skips `<!-- ... -->`; the leading `<!` has been consumed and the next
    /// bytes are `--`.
    fn skip_comment(&mut self) -> Result<(), XmlError> {
        self.expect(b'-')?;
        self.expect(b'-')?;
        let mut dashes = 0;
        loop {
            match self.bump()? {
                Some(b'-') => dashes += 1,
                Some(b'>') if dashes >= 2 => return Ok(()),
                Some(_) => dashes = 0,
                None => return Err(self.err("unterminated comment")),
            }
        }
    }

    /// Skips `<?...?>`; the leading `<?` has been consumed.
    fn skip_pi(&mut self) -> Result<(), XmlError> {
        let mut question = false;
        loop {
            match self.bump()? {
                Some(b'?') => question = true,
                Some(b'>') if question => return Ok(()),
                Some(_) => question = false,
                None => return Err(self.err("unterminated processing instruction")),
            }
        }
    }

    /// Skips `<!DOCTYPE ...>` including a bracketed internal subset; the
    /// leading `<!` has been consumed.
    fn skip_doctype(&mut self) -> Result<(), XmlError> {
        let mut depth = 0i32;
        loop {
            match self.bump()? {
                Some(b'[') => depth += 1,
                Some(b']') => depth -= 1,
                Some(b'>') if depth <= 0 => return Ok(()),
                Some(_) => {}
                None => return Err(self.err("unterminated DOCTYPE")),
            }
        }
    }

    /// Reads `<![CDATA[ ... ]]>` content; `<!` consumed, next byte is `[`.
    /// Returns the span of the *content* (between `<![CDATA[` and `]]>`),
    /// whose raw bytes always equal what was appended to `out`.
    fn read_cdata(&mut self, out: &mut Vec<u8>) -> Result<(u64, u64), XmlError> {
        for want in *b"[CDATA[" {
            self.expect(want)?;
        }
        let content_start = self.offset;
        let mut brackets: u32 = 0;
        loop {
            match self.bump()? {
                Some(b']') => brackets += 1,
                Some(b'>') if brackets >= 2 => {
                    // `]]]>`-style runs: everything before the final `]]` is
                    // content.
                    for _ in 0..brackets - 2 {
                        out.push(b']');
                    }
                    return Ok((content_start, self.offset - 3));
                }
                Some(b) => {
                    for _ in 0..brackets {
                        out.push(b']');
                    }
                    brackets = 0;
                    out.push(b);
                }
                None => return Err(self.err("unterminated CDATA section")),
            }
        }
    }

    /// Reads the attribute list into `self.attr_buf` / `self.attr_spans`
    /// (cleared first), returning whether the tag was self-closing.
    fn read_attributes(&mut self) -> Result<bool, XmlError> {
        let mut attrs = std::mem::take(&mut self.attr_buf);
        let mut spans = std::mem::take(&mut self.attr_spans);
        attrs.clear();
        spans.clear();
        let self_closing = self.read_attributes_into(&mut attrs, &mut spans);
        self.attr_buf = attrs;
        self.attr_spans = spans;
        self_closing
    }

    fn read_attributes_into(
        &mut self,
        attrs: &mut Vec<Attribute>,
        spans: &mut Vec<AttrSpan>,
    ) -> Result<bool, XmlError> {
        // Fast path: `<name>` with no attributes and no whitespace — the
        // overwhelming shape in data-centric documents.
        if self.pos < self.buf.len() && self.buf[self.pos] == b'>' {
            self.pos += 1;
            self.offset += 1;
            return Ok(false);
        }
        loop {
            self.skip_ws()?;
            match self.peek()? {
                Some(b'>') => {
                    self.bump()?;
                    return Ok(false);
                }
                Some(b'/') => {
                    self.bump()?;
                    self.expect(b'>')?;
                    return Ok(true);
                }
                Some(b) if is_name_byte(b) => {
                    let name = self.read_name()?;
                    self.skip_ws()?;
                    self.expect(b'=')?;
                    self.skip_ws()?;
                    let quote = match self.bump()? {
                        Some(q @ (b'"' | b'\'')) => q,
                        _ => return Err(self.err("expected quoted attribute value")),
                    };
                    let value_start = self.offset;
                    let mut clean = true;
                    let mut value = Vec::new();
                    loop {
                        self.take_until3(&mut value, quote, b'&', b'<')?;
                        match self.peek()? {
                            Some(q) if q == quote => break,
                            Some(b'&') => {
                                clean = false;
                                self.read_entity(&mut value)?;
                            }
                            Some(b'<') => return Err(self.err("'<' in attribute value")),
                            Some(_) => unreachable!("take_until3 stops on delimiters"),
                            None => return Err(self.err("unterminated attribute value")),
                        }
                    }
                    let value_end = self.offset;
                    self.bump()?; // closing quote
                    let value = self.utf8(value)?;
                    attrs.push(Attribute { name, value });
                    spans.push(AttrSpan {
                        value_start,
                        value_end,
                        clean,
                    });
                }
                Some(b) => return Err(self.err(format_args!("unexpected '{}' in tag", b as char))),
                None => return Err(self.err("unterminated start tag")),
            }
        }
    }

    /// Pops the innermost open element into `end_name_buf`.
    fn pop_open(&mut self) {
        let len = *self.open_lens.last().expect("pop with an open element") as usize;
        let start = self.open_names.len() - len;
        self.end_name_buf.clear();
        self.end_name_buf
            .extend_from_slice(&self.open_names[start..]);
        self.open_lens.pop();
        self.open_names.truncate(start);
        if self.open_lens.is_empty() {
            self.finished = true;
        }
    }

    /// Validates scratch bytes as UTF-8 for a borrowed return.
    fn utf8_ref<'b>(&self, bytes: &'b [u8]) -> Result<&'b str, XmlError> {
        std::str::from_utf8(bytes).map_err(|_| self.err("invalid UTF-8"))
    }

    /// Pulls the next token. Names, text and the attribute list are
    /// borrowed from scanner-owned scratch reused token to token.
    pub fn next_token(&mut self) -> Result<ScanToken<'_>, XmlError> {
        if self.pending_end {
            self.pending_end = false;
            self.pop_open();
            let name = std::str::from_utf8(&self.end_name_buf).expect("was validated on open");
            return Ok(ScanToken::EndElement {
                name,
                tag_end: self.pending_end_pos,
            });
        }
        if self.finished {
            // Allow trailing whitespace / comments / PIs after the root.
            loop {
                self.skip_ws()?;
                match self.peek()? {
                    None => return Ok(ScanToken::EndDocument),
                    Some(b'<') => {
                        self.bump()?;
                        match self.peek()? {
                            Some(b'!') => {
                                self.bump()?;
                                self.skip_comment()?;
                            }
                            Some(b'?') => {
                                self.bump()?;
                                self.skip_pi()?;
                            }
                            _ => return Err(self.err("content after root element")),
                        }
                    }
                    Some(_) => return Err(self.err("content after root element")),
                }
            }
        }
        loop {
            if self.open_lens.is_empty() {
                self.skip_ws()?;
            }
            let Some(b) = self.peek()? else {
                if self.open_lens[..] == [0] {
                    // End of a content range (see `content_range`).
                    return Ok(ScanToken::EndDocument);
                }
                return Err(if self.open_lens.is_empty() && !self.seen_root {
                    self.err("empty document")
                } else {
                    self.err(format_args!(
                        "end of input with {} unclosed element(s)",
                        self.open_lens.len()
                    ))
                });
            };
            if b == b'<' {
                let tag_start = self.offset;
                self.bump()?;
                match self.peek()? {
                    Some(b'/') => {
                        self.bump()?;
                        let mut name = std::mem::take(&mut self.end_name_buf);
                        let res = self.read_name_buf(&mut name);
                        self.end_name_buf = name;
                        res?;
                        // Fast path: `</name>` with no trailing whitespace.
                        if self.pos < self.buf.len() && self.buf[self.pos] == b'>' {
                            self.pos += 1;
                            self.offset += 1;
                        } else {
                            self.skip_ws()?;
                            self.expect(b'>')?;
                        }
                        let Some(&len) = self.open_lens.last() else {
                            let name = String::from_utf8_lossy(&self.end_name_buf).into_owned();
                            return Err(self.err(format_args!("unmatched end tag </{name}>")));
                        };
                        let start = self.open_names.len() - len as usize;
                        if self.open_names[start..] != self.end_name_buf[..] {
                            let open = String::from_utf8_lossy(&self.open_names[start..]);
                            let name = String::from_utf8_lossy(&self.end_name_buf);
                            return Err(self.err(format_args!(
                                "mismatched end tag </{name}>, expected </{open}>"
                            )));
                        }
                        self.open_lens.pop();
                        self.open_names.truncate(start);
                        if self.open_lens.is_empty() {
                            self.finished = true;
                        }
                        let name =
                            std::str::from_utf8(&self.end_name_buf).expect("was validated on open");
                        return Ok(ScanToken::EndElement {
                            name,
                            tag_end: self.offset,
                        });
                    }
                    Some(b'!') => {
                        self.bump()?;
                        match self.peek()? {
                            Some(b'-') => self.skip_comment()?,
                            Some(b'[') => {
                                if self.open_lens.is_empty() {
                                    return Err(self.err("CDATA outside root element"));
                                }
                                let mut text = std::mem::take(&mut self.text_buf);
                                text.clear();
                                let res = self.read_cdata(&mut text);
                                self.text_buf = text;
                                let (content_start, content_end) = res?;
                                if !self.text_buf.is_empty() {
                                    let text = self.utf8_ref(&self.text_buf)?;
                                    return Ok(ScanToken::Text(TextPiece {
                                        decoded: text,
                                        start: tag_start,
                                        end: self.offset,
                                        clean: Some((content_start, content_end)),
                                    }));
                                }
                            }
                            Some(b'D' | b'd') => self.skip_doctype()?,
                            _ => return Err(self.err("unsupported '<!' construct")),
                        }
                    }
                    Some(b'?') => {
                        self.bump()?;
                        self.skip_pi()?;
                    }
                    _ => {
                        if self.open_lens.is_empty() && self.seen_root {
                            return Err(self.err("multiple root elements"));
                        }
                        let mut name = std::mem::take(&mut self.name_buf);
                        let res = self.read_name_buf(&mut name);
                        self.name_buf = name;
                        res?;
                        let self_closing = self.read_attributes()?;
                        self.seen_root = true;
                        self.open_names.extend_from_slice(&self.name_buf);
                        self.open_lens.push(self.name_buf.len() as u32);
                        self.pending_end = self_closing;
                        self.pending_end_pos = self.offset;
                        // Validate now so End tokens can borrow unchecked.
                        let name = self.utf8_ref(&self.name_buf)?;
                        return Ok(ScanToken::StartElement {
                            name,
                            attributes: &self.attr_buf,
                            attr_spans: &self.attr_spans,
                            tag_start,
                        });
                    }
                }
            } else {
                // Character data.
                if self.open_lens.is_empty() {
                    return Err(self.err(format_args!(
                        "unexpected character '{}' outside root element",
                        b as char
                    )));
                }
                let piece_start = self.offset;
                let mut clean = true;
                let mut text = std::mem::take(&mut self.text_buf);
                text.clear();
                let res = (|| -> Result<(), XmlError> {
                    loop {
                        self.take_until2(&mut text, b'<', b'&')?;
                        match self.peek()? {
                            Some(b'<') | None => return Ok(()),
                            Some(b'&') => {
                                clean = false;
                                self.read_entity(&mut text)?;
                            }
                            Some(_) => unreachable!("take_until2 stops on delimiters"),
                        }
                    }
                })();
                self.text_buf = text;
                res?;
                let piece_end = self.offset;
                if self.keep_whitespace || !self.text_buf.iter().all(|c| c.is_ascii_whitespace()) {
                    let text = self.utf8_ref(&self.text_buf)?;
                    return Ok(ScanToken::Text(TextPiece {
                        decoded: text,
                        start: piece_start,
                        end: piece_end,
                        clean: if clean {
                            Some((piece_start, piece_end))
                        } else {
                            None
                        },
                    }));
                }
                // Whitespace-only: loop for the next real token.
            }
        }
    }
}

/// Resolves a predefined or numeric character entity (the part between
/// `&` and `;`).
pub(crate) fn resolve_entity(ent: &str) -> Option<char> {
    Some(match ent {
        "lt" => '<',
        "gt" => '>',
        "amp" => '&',
        "apos" => '\'',
        "quot" => '"',
        _ => {
            let code = if let Some(hex) = ent.strip_prefix("#x") {
                u32::from_str_radix(hex, 16).ok()
            } else if let Some(dec) = ent.strip_prefix('#') {
                dec.parse::<u32>().ok()
            } else {
                None
            };
            return code.and_then(char::from_u32);
        }
    })
}

/// Decodes one chardata run (no markup) into `out`, resolving entities.
/// If the decoded run is whitespace-only it is dropped (truncated back),
/// matching the scanner's data-centric default.
fn decode_chardata_run(run: &str, out: &mut String) {
    let mark = out.len();
    let mut rest = run;
    while let Some(p) = rest.find('&') {
        out.push_str(&rest[..p]);
        let after = &rest[p + 1..];
        match after.find(';') {
            Some(semi) => {
                match resolve_entity(&after[..semi]) {
                    Some(c) => out.push(c),
                    None => {
                        // Unreachable for spans produced by a successful
                        // scan; preserve the raw bytes defensively.
                        debug_assert!(false, "invalid entity in scanned span");
                        out.push('&');
                        out.push_str(&after[..=semi]);
                    }
                }
                rest = &after[semi + 1..];
            }
            None => {
                debug_assert!(false, "unterminated entity in scanned span");
                out.push('&');
                out.push_str(after);
                rest = "";
            }
        }
    }
    out.push_str(rest);
    if out.as_bytes()[mark..]
        .iter()
        .all(|c| c.is_ascii_whitespace())
    {
        out.truncate(mark);
    }
}

/// Decodes a raw text *region* — the source bytes spanned by one (possibly
/// merged) text node: chardata runs, entities, CDATA sections, and any
/// comments / processing instructions between them. Produces exactly the
/// concatenation of the pieces the scanner would have emitted for this
/// region, so lazily-decoded spans agree with eagerly-scanned text.
pub(crate) fn decode_text_region(region: &str) -> String {
    let bytes = region.as_bytes();
    let mut out = String::with_capacity(region.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'<' {
            if bytes[i..].starts_with(b"<![CDATA[") {
                let content_start = i + 9;
                let rel = region[content_start..].find("]]>");
                let content_end = rel.map(|p| content_start + p).unwrap_or(bytes.len());
                // CDATA content is verbatim and kept even if whitespace-only.
                out.push_str(&region[content_start..content_end]);
                i = (content_end + 3).min(bytes.len());
            } else if bytes[i..].starts_with(b"<!--") {
                let rel = region[i + 4..].find("-->");
                i = rel.map(|p| i + 4 + p + 3).unwrap_or(bytes.len());
            } else if bytes[i..].starts_with(b"<?") {
                let rel = region[i + 2..].find("?>");
                i = rel.map(|p| i + 2 + p + 2).unwrap_or(bytes.len());
            } else {
                // Element markup cannot occur inside a text region.
                debug_assert!(false, "element markup inside text region");
                break;
            }
        } else {
            let run_end = region[i..].find('<').map(|p| i + p).unwrap_or(bytes.len());
            decode_chardata_run(&region[i..run_end], &mut out);
            i = run_end;
        }
    }
    out
}

const NAME_BYTE: [bool; 256] = {
    let mut t = [false; 256];
    let mut i = 0;
    while i < 256 {
        let b = i as u8;
        t[i] = b.is_ascii_alphanumeric() || matches!(b, b'_' | b'-' | b'.' | b':') || b >= 0x80;
        i += 1;
    }
    t
};

/// Whether `b` may occur in an element or attribute name.
#[inline]
pub(crate) fn is_name_byte(b: u8) -> bool {
    NAME_BYTE[b as usize]
}

const SWAR_LO: u64 = 0x0101_0101_0101_0101;
const SWAR_HI: u64 = 0x8080_8080_8080_8080;

/// Bytes of `w` equal to `byte` get their high bit set.
#[inline]
fn swar_eq(w: u64, byte: u64) -> u64 {
    let x = w ^ (SWAR_LO.wrapping_mul(byte));
    x.wrapping_sub(SWAR_LO) & !x & SWAR_HI
}

/// Index of the first `a` or `b` in `hay` (or `hay.len()`), eight bytes at
/// a time.
#[inline]
fn memchr2(a: u8, b: u8, hay: &[u8]) -> usize {
    let mut i = 0;
    while i + 8 <= hay.len() {
        let w = u64::from_le_bytes(hay[i..i + 8].try_into().expect("8 bytes"));
        let m = swar_eq(w, a as u64) | swar_eq(w, b as u64);
        if m != 0 {
            return i + (m.trailing_zeros() / 8) as usize;
        }
        i += 8;
    }
    while i < hay.len() {
        if hay[i] == a || hay[i] == b {
            return i;
        }
        i += 1;
    }
    hay.len()
}

/// Index of the first `a`, `b` or `c` in `hay` (or `hay.len()`).
#[inline]
fn memchr3(a: u8, b: u8, c: u8, hay: &[u8]) -> usize {
    let mut i = 0;
    while i + 8 <= hay.len() {
        let w = u64::from_le_bytes(hay[i..i + 8].try_into().expect("8 bytes"));
        let m = swar_eq(w, a as u64) | swar_eq(w, b as u64) | swar_eq(w, c as u64);
        if m != 0 {
            return i + (m.trailing_zeros() / 8) as usize;
        }
        i += 8;
    }
    while i < hay.len() {
        if hay[i] == a || hay[i] == b || hay[i] == c {
            return i;
        }
        i += 1;
    }
    hay.len()
}

/// Newline count, eight bytes at a time (error-position bookkeeping must
/// not slow the bulk scans down).
#[inline]
fn count_newlines(bytes: &[u8]) -> u64 {
    let mut n = 0u64;
    let mut i = 0;
    while i + 8 <= bytes.len() {
        let w = u64::from_le_bytes(bytes[i..i + 8].try_into().expect("8 bytes"));
        n += (swar_eq(w, b'\n' as u64).count_ones()) as u64;
        i += 8;
    }
    while i < bytes.len() {
        n += (bytes[i] == b'\n') as u64;
        i += 1;
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tokens(input: &str) -> Vec<String> {
        let mut s = Scanner::from_str(input);
        let mut out = vec![];
        loop {
            match s.next_token().expect("scan ok") {
                ScanToken::StartElement {
                    name, tag_start, ..
                } => out.push(format!("start {name} @{tag_start}")),
                ScanToken::Text(p) => out.push(format!(
                    "text {:?} [{}..{}] clean={:?}",
                    p.decoded, p.start, p.end, p.clean
                )),
                ScanToken::EndElement { name, tag_end } => {
                    out.push(format!("end {name} @{tag_end}"))
                }
                ScanToken::EndDocument => break,
            }
        }
        out
    }

    #[test]
    fn spans_cover_the_source() {
        let src = "<a><b>hi</b></a>";
        assert_eq!(
            tokens(src),
            vec![
                "start a @0",
                "start b @3",
                "text \"hi\" [6..8] clean=Some((6, 8))",
                "end b @12",
                "end a @16",
            ]
        );
    }

    #[test]
    fn self_closing_end_span_points_past_the_tag() {
        let src = "<a><b/></a>";
        assert_eq!(
            tokens(src),
            vec!["start a @0", "start b @3", "end b @7", "end a @11"]
        );
    }

    #[test]
    fn entity_text_is_dirty() {
        let toks = tokens("<a>x&amp;y</a>");
        assert_eq!(toks[1], "text \"x&y\" [3..10] clean=None");
    }

    #[test]
    fn cdata_clean_span_is_the_inner_content() {
        let toks = tokens("<a><![CDATA[x < y]]></a>");
        assert_eq!(toks[1], "text \"x < y\" [3..20] clean=Some((12, 17))");
    }

    #[test]
    fn cdata_trailing_brackets_are_content() {
        // `]]]>` terminates with the final `]]>`; earlier `]`s are content.
        let toks = tokens("<a><![CDATA[x]]]></a>");
        assert!(toks[1].starts_with("text \"x]\""), "{}", toks[1]);
        let toks = tokens("<a><![CDATA[]]]]></a>");
        assert!(toks[1].starts_with("text \"]]\""), "{}", toks[1]);
    }

    #[test]
    fn attr_value_spans_and_cleanliness() {
        let mut s = Scanner::from_str(r#"<a k="v1" q='x &amp; y'/>"#);
        match s.next_token().unwrap() {
            ScanToken::StartElement {
                attributes,
                attr_spans,
                ..
            } => {
                assert_eq!(attributes[0].value, "v1");
                assert!(attr_spans[0].clean);
                assert_eq!((attr_spans[0].value_start, attr_spans[0].value_end), (6, 8));
                assert_eq!(attributes[1].value, "x & y");
                assert!(!attr_spans[1].clean);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn decode_text_region_matches_scan() {
        for src in [
            "x&amp;y",
            "  \n ",
            "a<!-- c -->b",
            "a<!-- c --> \n <?pi?>b",
            "<![CDATA[ ]]>",
            "x<![CDATA[a]]b]]>y&lt;",
            "&#65;&#x42;",
        ] {
            let doc = format!("<r>{src}</r>");
            let mut s = Scanner::from_str(&doc);
            let mut scanned = String::new();
            loop {
                match s.next_token().unwrap() {
                    ScanToken::Text(p) => scanned.push_str(p.decoded),
                    ScanToken::EndDocument => break,
                    _ => {}
                }
            }
            assert_eq!(decode_text_region(src), scanned, "region {src:?}");
        }
    }

    #[test]
    fn sink_receives_all_tokens() {
        struct Count {
            starts: usize,
            texts: usize,
            ends: usize,
        }
        impl ScanSink for Count {
            fn start_element(
                &mut self,
                _: &str,
                _: &[Attribute],
                _: &[AttrSpan],
                _: u64,
            ) -> Result<(), XmlError> {
                self.starts += 1;
                Ok(())
            }
            fn text(&mut self, _: TextPiece<'_>) -> Result<(), XmlError> {
                self.texts += 1;
                Ok(())
            }
            fn end_element(&mut self, _: &str, _: u64) -> Result<(), XmlError> {
                self.ends += 1;
                Ok(())
            }
        }
        let mut c = Count {
            starts: 0,
            texts: 0,
            ends: 0,
        };
        let mut s = Scanner::from_str("<a><b>t</b><c/></a>");
        scan(&mut s, &mut c).unwrap();
        assert_eq!((c.starts, c.texts, c.ends), (3, 1, 3));
    }
}
