//! Span-based XML document trees (the engine's "DOM mode" representation).
//!
//! Every [`Document`] holds its raw XML text once (a shared `Arc<str>`)
//! plus a flat arena of compact per-node records. Element names and
//! attribute names are interned [`Label`]s; text and attribute values are
//! **byte spans** into the buffer, so no per-node owned `String` is
//! stored. Content containing entities (or text merged across
//! CDATA/comment boundaries) keeps its raw span and is decoded lazily on
//! first access, with the decoded form cached. A parsed document's buffer
//! is its input; a document built through [`TreeBuilder`]'s programmatic
//! methods (the generator, the view materializer) writes its canonical
//! serialization as it builds, so it is the same kind of document.
//!
//! Nodes live in a flat arena indexed by [`NodeId`]. Sibling/child links
//! are stored as compact `u32` fields. Every document satisfies the
//! invariant that **`NodeId` order equals document order**, which the
//! evaluators rely on to emit answers in document order without sorting.
//!
//! Buffer offsets are `u32`, capping a single document at 4 GB; the
//! parser rejects larger inputs.

use crate::label::{Label, Vocabulary};
use std::fmt;
use std::sync::{Arc, OnceLock};

pub use crate::scanner::Attribute;

mod splice;
pub(crate) use splice::{Cut, Splice, Window};

/// Index of a node in a [`Document`] arena.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The dense index of this node.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

const NIL: u32 = u32::MAX;

/// What a node is: an element with an interned label, or a text node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeKind {
    /// An element node such as `<patient>`.
    Element(Label),
    /// A text node; the index points into the document's text table.
    Text(u32),
}

/// How one text node's content is stored: a plain `Copy` column entry,
/// so an edit copies the text table as it copies the node table. The
/// common case (an entity-free span) is inline; the rare dirty case is an
/// index into the document's side table of [`DirtyText`]s.
#[derive(Clone, Copy, Debug)]
enum TextRepr {
    /// Entity-free span: the buffer bytes *are* the text (for CDATA, the
    /// inner content span).
    Span { start: u32, end: u32 },
    /// Everything else: an index into [`Document`]'s `dirty` table, which
    /// holds these entries in text order.
    Dirty(u32),
}

/// A raw source region containing entities, CDATA wrappers or interior
/// comments/PIs (merged pieces); decoded lazily, cached once. Cloning
/// shares a filled cache instead of copying it.
#[derive(Clone, Debug)]
struct DirtyText {
    start: u32,
    end: u32,
    cache: OnceLock<Arc<str>>,
}

/// How one attribute value is stored.
#[derive(Clone, Debug)]
enum AttrValue {
    /// Entity-free span between the quotes.
    Span { start: u32, end: u32 },
    /// Entity-containing value, already decoded.
    Owned(Box<str>),
}

/// A stored attribute: interned name + span-or-owned value.
#[derive(Clone, Debug)]
struct AttrRecord {
    name: Label,
    value: AttrValue,
}

/// One arena node: tree links and kind — the data every traversal
/// touches, kept at 24 bytes for cache density. The node's source extent
/// lives in the parallel cold array [`Extent`] (only edit splicing and
/// `node_extent` read it).
#[derive(Clone, Copy)]
struct NodeData {
    parent: u32,
    first_child: u32,
    last_child: u32,
    next_sibling: u32,
    kind: NodeKind,
}

/// The raw source extent of one node (for elements: from `<` to past the
/// closing `>`; for text: the full raw region). Parallel to the node
/// arena; 8 bytes.
#[derive(Clone, Copy)]
struct Extent {
    start: u32,
    end: u32,
}

/// Memory accounting for a [`Document`] (see
/// [`Document::memory_summary`]). All figures in bytes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemorySummary {
    /// The shared raw buffer (for a built document, its serialization).
    pub buffer_bytes: usize,
    /// The node arena plus the parallel extent table (32 bytes per node
    /// combined: 24 hot + 8 cold).
    pub node_table_bytes: usize,
    /// The text-representation table (spans, not content).
    pub text_table_bytes: usize,
    /// The attribute tables (records, not content).
    pub attr_table_bytes: usize,
    /// Heap bytes of decoded entity-bearing attribute values.
    pub owned_bytes: usize,
    /// Heap bytes of lazily-materialized entity-decode caches.
    pub entity_cache_bytes: usize,
}

impl MemorySummary {
    /// Total of all accounted bytes.
    pub fn total(&self) -> usize {
        self.buffer_bytes
            + self.node_table_bytes
            + self.text_table_bytes
            + self.attr_table_bytes
            + self.owned_bytes
            + self.entity_cache_bytes
    }
}

impl fmt::Display for MemorySummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "buffer {} B, nodes {} B, text spans {} B, attrs {} B, owned {} B, entity caches {} B (total {} B)",
            self.buffer_bytes,
            self.node_table_bytes,
            self.text_table_bytes,
            self.attr_table_bytes,
            self.owned_bytes,
            self.entity_cache_bytes,
            self.total()
        )
    }
}

/// An immutable-after-build XML document tree.
///
/// ```
/// use smoqe_xml::{Document, Vocabulary};
/// let vocab = Vocabulary::new();
/// let doc = Document::parse_str("<a><b>hi</b><b/></a>", &vocab).unwrap();
/// let root = doc.root();
/// assert_eq!(doc.name(root), Some("a"));
/// assert_eq!(doc.children(root).count(), 2);
/// ```
#[derive(Clone)]
pub struct Document {
    vocab: Vocabulary,
    /// The raw source the spans point into. Shared (not copied) across
    /// snapshots and clones.
    buffer: Arc<str>,
    nodes: Vec<NodeData>,
    /// Source extents, parallel to `nodes` (cold: only edits and
    /// `node_extent` read them).
    extents: Vec<Extent>,
    texts: Vec<TextRepr>,
    /// The regions of [`TextRepr::Dirty`] texts, in text order.
    dirty: Vec<DirtyText>,
    /// Sparse: most elements have no attributes.
    attrs: std::collections::HashMap<u32, Vec<AttrRecord>>,
    /// Label-indexed name snapshot taken at build time, so
    /// [`Document::name`] borrows without taking the vocabulary lock.
    names: Arc<[Arc<str>]>,
    root: u32,
}

impl Document {
    /// The vocabulary labels in this document were interned against.
    pub fn vocabulary(&self) -> &Vocabulary {
        &self.vocab
    }

    /// The root element of the document.
    pub fn root(&self) -> NodeId {
        debug_assert_ne!(self.root, NIL, "document has a root by construction");
        NodeId(self.root)
    }

    /// Total number of nodes (elements + text nodes).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of element nodes.
    pub fn element_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n.kind, NodeKind::Element(_)))
            .count()
    }

    /// Number of text nodes.
    pub(crate) fn text_count(&self) -> usize {
        self.texts.len()
    }

    /// The kind of `node`.
    pub fn kind(&self, node: NodeId) -> &NodeKind {
        &self.nodes[node.index()].kind
    }

    /// The element label of `node`, or `None` for text nodes.
    #[inline]
    pub fn label(&self, node: NodeId) -> Option<Label> {
        match self.nodes[node.index()].kind {
            NodeKind::Element(l) => Some(l),
            NodeKind::Text(_) => None,
        }
    }

    /// The element name of `node` (borrowed from the document's label
    /// snapshot — no lock, no allocation), or `None` for text nodes.
    #[inline]
    pub fn name(&self, node: NodeId) -> Option<&str> {
        self.label(node).map(|l| &*self.names[l.index()])
    }

    /// The interned name of `label` per this document's build-time
    /// snapshot.
    #[inline]
    pub fn label_name(&self, label: Label) -> &str {
        &self.names[label.index()]
    }

    /// Whether `node` is an element.
    #[inline]
    pub fn is_element(&self, node: NodeId) -> bool {
        matches!(self.nodes[node.index()].kind, NodeKind::Element(_))
    }

    fn resolve_text(&self, t: u32) -> &str {
        match &self.texts[t as usize] {
            TextRepr::Span { start, end } => &self.buffer[*start as usize..*end as usize],
            TextRepr::Dirty(i) => {
                let d = &self.dirty[*i as usize];
                d.cache.get_or_init(|| {
                    crate::scanner::decode_text_region(
                        &self.buffer[d.start as usize..d.end as usize],
                    )
                    .into()
                })
            }
        }
    }

    fn resolve_attr<'a>(&'a self, a: &'a AttrValue) -> &'a str {
        match a {
            AttrValue::Owned(s) => s,
            AttrValue::Span { start, end } => &self.buffer[*start as usize..*end as usize],
        }
    }

    /// The text of a text node, or `None` for elements. Entity-bearing
    /// spans are decoded on first access and cached.
    pub fn text(&self, node: NodeId) -> Option<&str> {
        match self.nodes[node.index()].kind {
            NodeKind::Text(t) => Some(self.resolve_text(t)),
            NodeKind::Element(_) => None,
        }
    }

    /// The attributes of `node` as `(name, value)` pairs in source order
    /// (empty for text nodes / elements without attributes).
    pub fn attributes(&self, node: NodeId) -> impl Iterator<Item = (&str, &str)> + '_ {
        self.attr_records(node)
            .iter()
            .map(move |r| (self.label_name(r.name), self.resolve_attr(&r.value)))
    }

    /// Number of attributes on `node`.
    pub fn attribute_count(&self, node: NodeId) -> usize {
        self.attr_records(node).len()
    }

    fn attr_records(&self, node: NodeId) -> &[AttrRecord] {
        self.attrs.get(&node.0).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Value of the attribute `name` on `node`, if present.
    pub fn attribute(&self, node: NodeId, name: &str) -> Option<&str> {
        // Attribute names are interned: an un-interned name occurs nowhere.
        let label = self.vocab.lookup(name)?;
        self.attr_records(node)
            .iter()
            .find(|r| r.name == label)
            .map(|r| self.resolve_attr(&r.value))
    }

    /// The parent of `node` (`None` for the root).
    #[inline]
    pub fn parent(&self, node: NodeId) -> Option<NodeId> {
        wrap(self.nodes[node.index()].parent)
    }

    /// The first child of `node`.
    #[inline]
    pub fn first_child(&self, node: NodeId) -> Option<NodeId> {
        wrap(self.nodes[node.index()].first_child)
    }

    /// The next sibling of `node`.
    #[inline]
    pub fn next_sibling(&self, node: NodeId) -> Option<NodeId> {
        wrap(self.nodes[node.index()].next_sibling)
    }

    /// The last child of `node`.
    #[inline]
    pub fn last_child(&self, node: NodeId) -> Option<NodeId> {
        wrap(self.nodes[node.index()].last_child)
    }

    /// The previous sibling of `node`. There is no back link: the node
    /// just before `node` in document order ends the previous sibling's
    /// subtree, so this climbs from there — O(depth of that subtree).
    pub(crate) fn prev_sibling(&self, node: NodeId) -> Option<NodeId> {
        let parent = self.nodes[node.index()].parent;
        if parent == NIL || self.nodes[parent as usize].first_child == node.0 {
            return None;
        }
        let mut prev = node.0 - 1;
        while self.nodes[prev as usize].parent != parent {
            prev = self.nodes[prev as usize].parent;
        }
        Some(NodeId(prev))
    }

    /// Iterates over the children of `node` in document order.
    pub fn children(&self, node: NodeId) -> Children<'_> {
        Children {
            doc: self,
            next: self.nodes[node.index()].first_child,
        }
    }

    /// Iterates over the element children of `node` in document order.
    pub fn child_elements(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.children(node).filter(move |&c| self.is_element(c))
    }

    /// Iterates over `node` and all its descendants in pre-order
    /// (document order).
    pub fn descendants_or_self(&self, node: NodeId) -> Descendants<'_> {
        Descendants {
            doc: self,
            next: node.0,
            stop_above: self.nodes[node.index()].parent,
            done: false,
        }
    }

    /// Iterates over the strict descendants of `node` in document order.
    pub fn descendants(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.descendants_or_self(node).skip(1)
    }

    /// Iterates over the strict ancestors of `node`, nearest first.
    pub fn ancestors(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        std::iter::successors(self.parent(node), move |&n| self.parent(n))
    }

    /// Depth of `node` (root has depth 0).
    pub fn depth(&self, node: NodeId) -> usize {
        self.ancestors(node).count()
    }

    /// Maximum node depth in the document.
    pub fn max_depth(&self) -> usize {
        let mut max = 0;
        let mut depths = vec![0u32; self.nodes.len()];
        for (i, n) in self.nodes.iter().enumerate() {
            if n.parent != NIL {
                depths[i] = depths[n.parent as usize] + 1;
                max = max.max(depths[i] as usize);
            }
        }
        max
    }

    /// Number of nodes in the subtree rooted at `node` (including it).
    pub fn subtree_size(&self, node: NodeId) -> usize {
        self.descendants_or_self(node).count()
    }

    /// The XPath string-value of `node`: for a text node its text, for an
    /// element the concatenation of all descendant text in document order.
    pub fn string_value(&self, node: NodeId) -> String {
        self.string_value_cow(node).into_owned()
    }

    /// [`Document::string_value`] without the unconditional allocation:
    /// text nodes and elements whose subtree holds at most one text node
    /// borrow straight from the buffer (or decode cache).
    pub fn string_value_cow(&self, node: NodeId) -> std::borrow::Cow<'_, str> {
        use std::borrow::Cow;
        if let NodeKind::Text(t) = self.nodes[node.index()].kind {
            return Cow::Borrowed(self.resolve_text(t));
        }
        let mut single: Option<&str> = None;
        for d in self.descendants_or_self(node) {
            if let Some(t) = self.text(d) {
                if let Some(first) = single {
                    // Two or more pieces: concatenate.
                    let mut out = String::with_capacity(first.len() + t.len());
                    for d in self.descendants_or_self(node) {
                        if let Some(t) = self.text(d) {
                            out.push_str(t);
                        }
                    }
                    return Cow::Owned(out);
                }
                single = Some(t);
            }
        }
        Cow::Borrowed(single.unwrap_or(""))
    }

    /// The concatenation of the *direct* text children of `node` (empty
    /// for text nodes; use [`Document::text`] for those). This is the
    /// value `text() = 'c'` comparisons test: unlike the full
    /// string-value, it is preserved exactly by security views, which may
    /// hide text-bearing descendants but always copy a visible node's own
    /// text.
    pub fn direct_text(&self, node: NodeId) -> String {
        self.direct_text_cow(node).into_owned()
    }

    /// [`Document::direct_text`] without the unconditional allocation: the
    /// overwhelmingly common shapes — no text child, or exactly one —
    /// borrow straight from the buffer, so per-predicate-check resolution
    /// in the evaluator allocates nothing.
    pub fn direct_text_cow(&self, node: NodeId) -> std::borrow::Cow<'_, str> {
        use std::borrow::Cow;
        let mut single: Option<&str> = None;
        for c in self.children(node) {
            if let Some(t) = self.text(c) {
                if let Some(first) = single {
                    // Split direct text (text around child elements):
                    // concatenate.
                    let mut out = String::with_capacity(first.len() + t.len());
                    for c in self.children(node) {
                        if let Some(t) = self.text(c) {
                            out.push_str(t);
                        }
                    }
                    return Cow::Owned(out);
                }
                single = Some(t);
            }
        }
        Cow::Borrowed(single.unwrap_or(""))
    }

    /// All nodes of the document in document order.
    pub fn all_nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Nodes with the given element label, in document order.
    pub fn nodes_labeled(&self, label: Label) -> impl Iterator<Item = NodeId> + '_ {
        self.all_nodes()
            .filter(move |&n| self.label(n) == Some(label))
    }

    /// The shared raw source buffer this document's spans point into.
    /// Cloning is an `Arc` bump: snapshots and spliced generations share
    /// the bytes.
    pub fn shared_buffer(&self) -> Arc<str> {
        self.buffer.clone()
    }

    /// The raw source text. For a document built through
    /// [`TreeBuilder`]'s programmatic methods it equals
    /// [`Document::to_xml`].
    pub fn raw_source(&self) -> &str {
        &self.buffer
    }

    /// The source extent of `node` — for elements, from the `<` of the
    /// start tag to one past the `>` of the end tag (or `/>`); for text
    /// nodes, the full raw region.
    pub fn node_extent(&self, node: NodeId) -> (usize, usize) {
        let e = &self.extents[node.index()];
        (e.start as usize, e.end as usize)
    }

    /// Byte-level memory accounting: the shared buffer, the compact span
    /// tables, and any lazily-materialized entity caches.
    pub fn memory_summary(&self) -> MemorySummary {
        let mut s = MemorySummary {
            buffer_bytes: self.buffer.len(),
            node_table_bytes: self.nodes.capacity() * std::mem::size_of::<NodeData>()
                + self.extents.capacity() * std::mem::size_of::<Extent>(),
            text_table_bytes: self.texts.capacity() * std::mem::size_of::<TextRepr>()
                + self.dirty.len() * std::mem::size_of::<DirtyText>(),
            entity_cache_bytes: self
                .dirty
                .iter()
                .filter_map(|d| d.cache.get())
                .map(|b| b.len())
                .sum(),
            ..MemorySummary::default()
        };
        for recs in self.attrs.values() {
            s.attr_table_bytes += recs.capacity() * std::mem::size_of::<AttrRecord>();
            for r in recs {
                if let AttrValue::Owned(b) = &r.value {
                    s.owned_bytes += b.len();
                }
            }
        }
        s
    }

    /// Parses a document from a string slice. Convenience wrapper around
    /// [`crate::parse::parse_document`].
    pub fn parse_str(input: &str, vocab: &Vocabulary) -> Result<Document, crate::XmlError> {
        crate::parse::parse_document(input, vocab)
    }

    /// Serializes the document to compact XML text. Convenience wrapper
    /// around [`crate::serialize::to_string`].
    pub fn to_xml(&self) -> String {
        crate::serialize::to_string(self)
    }
}

#[inline]
fn wrap(raw: u32) -> Option<NodeId> {
    if raw == NIL {
        None
    } else {
        Some(NodeId(raw))
    }
}

/// Iterator over the children of a node.
pub struct Children<'a> {
    doc: &'a Document,
    next: u32,
}

impl Iterator for Children<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let cur = wrap(self.next)?;
        self.next = self.doc.nodes[cur.index()].next_sibling;
        Some(cur)
    }
}

/// Pre-order iterator over a subtree.
pub struct Descendants<'a> {
    doc: &'a Document,
    next: u32,
    /// Parent of the subtree root: ascending past it terminates iteration.
    stop_above: u32,
    done: bool,
}

impl Iterator for Descendants<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        if self.done {
            return None;
        }
        let cur = self.next;
        let nodes = &self.doc.nodes;
        // Advance: first child, else next sibling, else climb.
        let data = &nodes[cur as usize];
        if data.first_child != NIL {
            self.next = data.first_child;
        } else {
            let mut up = cur;
            loop {
                if nodes[up as usize].parent == self.stop_above {
                    self.done = true;
                    break;
                }
                if nodes[up as usize].next_sibling != NIL {
                    self.next = nodes[up as usize].next_sibling;
                    break;
                }
                up = nodes[up as usize].parent;
            }
        }
        Some(NodeId(cur))
    }
}

/// Incrementally builds a [`Document`] in document order.
///
/// The builder enforces well-formedness: exactly one root element, matched
/// start/end calls, text only inside elements, attributes only in a start
/// tag. The public `start_element` / `attribute` / `text` / `end_element`
/// methods write the document's canonical serialization (the bytes
/// [`crate::serialize::to_string`] produces) as they go and record spans
/// into it, so [`TreeBuilder::finish`] returns a document whose buffer is
/// that serialization — the same document a parse of it would give. The
/// parser records spans into its input through the crate-internal
/// `*_spanned` / `text_piece` methods, the one path every node takes.
///
/// Two rules follow from "the same document a parse would give":
/// whitespace-only text is dropped unless more text follows in the same
/// run (a parse drops whitespace-only character data), and adjacent
/// `text` calls make one text node.
///
/// ```
/// use smoqe_xml::{TreeBuilder, Vocabulary};
/// let vocab = Vocabulary::new();
/// let mut b = TreeBuilder::new(vocab.clone());
/// let a = vocab.intern("a");
/// let bl = vocab.intern("b");
/// b.start_element(a);
/// b.start_element(bl);
/// b.text("hi");
/// b.end_element();
/// b.end_element();
/// let doc = b.finish().unwrap();
/// assert_eq!(doc.node_count(), 3);
/// assert_eq!(doc.raw_source(), "<a><b>hi</b></a>");
/// ```
pub struct TreeBuilder {
    doc: Document,
    /// What the public methods have written: the serialization so far,
    /// which `finish` installs as the buffer. Stays empty on the parse
    /// path, whose spans point into the buffer the document already holds.
    out: String,
    /// Whitespace-only text not yet written: written if more text follows
    /// in the same run, dropped if markup does.
    held_space: String,
    /// Whether the innermost open element's start tag still lacks its
    /// `>`: it takes attributes, and closes as `/>` if nothing follows.
    tag_open: bool,
    stack: Vec<u32>,
    finished_root: bool,
}

impl TreeBuilder {
    /// Creates a builder writing a new document over `vocab`.
    pub fn new(vocab: Vocabulary) -> Self {
        Self::with_buffer(vocab, Arc::default())
    }

    /// Creates a builder whose span-based nodes reference `buffer`.
    pub(crate) fn with_buffer(vocab: Vocabulary, buffer: Arc<str>) -> Self {
        Self::reopen(
            Document {
                vocab,
                buffer,
                nodes: Vec::new(),
                extents: Vec::new(),
                texts: Vec::new(),
                dirty: Vec::new(),
                attrs: std::collections::HashMap::new(),
                names: Arc::from(Vec::new()),
                root: NIL,
            },
            Vec::new(),
        )
    }

    /// A builder appending spanned nodes to `doc` inside the open
    /// elements `stack`.
    pub(crate) fn reopen(doc: Document, stack: Vec<u32>) -> Self {
        TreeBuilder {
            doc,
            out: String::new(),
            held_space: String::new(),
            tag_open: false,
            stack,
            finished_root: false,
        }
    }

    fn push_node(&mut self, kind: NodeKind, span_start: u32, span_end: u32) -> u32 {
        let id = self.doc.nodes.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NIL);
        self.doc.nodes.push(NodeData {
            parent,
            first_child: NIL,
            last_child: NIL,
            next_sibling: NIL,
            kind,
        });
        self.doc.extents.push(Extent {
            start: span_start,
            end: span_end,
        });
        if parent != NIL {
            let p = &mut self.doc.nodes[parent as usize];
            if p.first_child == NIL {
                p.first_child = id;
            } else {
                let last = p.last_child;
                self.doc.nodes[last as usize].next_sibling = id;
            }
            self.doc.nodes[parent as usize].last_child = id;
        }
        id
    }

    /// The offset of the next byte written: spans are `u32`.
    fn written(&self) -> u32 {
        u32::try_from(self.out.len()).expect("a built document exceeds the 4 GB span-offset limit")
    }

    /// Writes the name of `label`.
    fn write_name(&mut self, label: Label) {
        if label.index() >= self.doc.names.len() {
            self.doc.names = self.doc.vocab.snapshot().into();
        }
        self.out.push_str(&self.doc.names[label.index()]);
    }

    /// Ends the open start tag, if any, before content is written.
    fn close_start_tag(&mut self) {
        if std::mem::take(&mut self.tag_open) {
            self.out.push('>');
        }
    }

    /// Opens an element with the given label.
    pub fn start_element(&mut self, label: Label) -> NodeId {
        self.held_space.clear();
        self.close_start_tag();
        let start = self.written();
        self.out.push('<');
        self.write_name(label);
        self.tag_open = true;
        self.start_element_spanned(label, start)
    }

    /// Opens an element whose start tag begins at buffer offset `start`.
    pub(crate) fn start_element_spanned(&mut self, label: Label, start: u32) -> NodeId {
        assert!(
            !(self.stack.is_empty() && self.finished_root),
            "document may only have one root element"
        );
        let id = self.push_node(NodeKind::Element(label), start, 0);
        if self.stack.is_empty() {
            self.doc.root = id;
        }
        self.stack.push(id);
        NodeId(id)
    }

    /// Opens an element, interning `name` in the document's vocabulary.
    pub fn start_element_named(&mut self, name: &str) -> NodeId {
        let l = self.doc.vocab.intern(name);
        self.start_element(l)
    }

    /// [`TreeBuilder::start_element_named`] with the start tag's buffer
    /// offset.
    pub(crate) fn start_element_named_spanned(&mut self, name: &str, start: u32) -> NodeId {
        let l = self.doc.vocab.intern(name);
        self.start_element_spanned(l, start)
    }

    /// Adds an attribute to the element just opened. The name is interned.
    ///
    /// # Panics
    /// Panics unless the innermost open element has no content yet.
    pub fn attribute(&mut self, name: &str, value: &str) {
        assert!(self.tag_open, "attribute outside of an open start tag");
        self.out.push(' ');
        self.out.push_str(name);
        self.out.push_str("=\"");
        let start = self.written();
        crate::serialize::escape_attr(value, &mut self.out);
        let end = self.written();
        self.out.push('"');
        // Escaping only lengthens: an unchanged length is an unchanged value.
        let clean = (end - start) as usize == value.len();
        self.attribute_spanned(name, value, clean.then_some((start, end)));
    }

    /// Adds an attribute whose entity-free value occupies
    /// `span` = `(start, end)` in the backing buffer; `None` stores the
    /// decoded value owned (entity-bearing values).
    pub(crate) fn attribute_spanned(&mut self, name: &str, value: &str, span: Option<(u32, u32)>) {
        let cur = *self.stack.last().expect("attribute outside of element");
        let value = match span {
            Some((start, end)) => AttrValue::Span { start, end },
            None => AttrValue::Owned(value.into()),
        };
        let name = self.doc.vocab.intern(name);
        self.doc
            .attrs
            .entry(cur)
            .or_default()
            .push(AttrRecord { name, value });
    }

    /// Appends text to the currently open element: a new text node, or
    /// more of the one the previous call made. Empty strings are ignored;
    /// whitespace-only text is held back until non-whitespace text of the
    /// same run follows, and dropped if markup comes first.
    ///
    /// # Panics
    /// Panics if no element is open.
    pub fn text(&mut self, content: &str) {
        let cur = *self.stack.last().expect("text outside of root element");
        if content.is_empty() {
            return;
        }
        let last = self.doc.nodes[cur as usize].last_child;
        let extends = last != NIL && !self.doc.is_element(NodeId(last));
        if !extends && content.bytes().all(|b| b.is_ascii_whitespace()) {
            self.held_space.push_str(content);
            return;
        }
        self.close_start_tag();
        let start = self.written();
        let held = std::mem::take(&mut self.held_space);
        self.out.push_str(&held);
        crate::serialize::escape_text(content, &mut self.out);
        let end = self.written();
        let clean = (end - start) as usize == held.len() + content.len();
        self.text_piece(content, start, end, clean.then_some((start, end)));
        let NodeKind::Text(t) = self.doc.nodes[self.doc.nodes.len() - 1].kind else {
            unreachable!("text_piece appends or extends the last node, a text node")
        };
        if let TextRepr::Dirty(i) = self.doc.texts[t as usize] {
            // Pre-fill the decode cache: the decoded text is at hand.
            let d = &self.doc.dirty[i as usize];
            let decoded = if extends {
                let region = &self.out[d.start as usize..d.end as usize];
                crate::scanner::decode_text_region(region)
            } else {
                held + content
            };
            let _ = d.cache.set(decoded.into());
        }
    }

    /// Appends one scanned text piece (see
    /// [`crate::scanner::TextPiece`]): `decoded` is the resolved text,
    /// `start..end` its raw extent, and `clean` a sub-span whose raw bytes
    /// equal `decoded` (entity-free). Adjacent pieces merge into one text
    /// node whose raw region covers both; merged or entity-bearing nodes
    /// decode lazily on first access.
    pub(crate) fn text_piece(
        &mut self,
        decoded: &str,
        start: u32,
        end: u32,
        clean: Option<(u32, u32)>,
    ) {
        if decoded.is_empty() {
            return;
        }
        let cur = *self.stack.last().expect("text outside of root element");
        let last = self.doc.nodes[cur as usize].last_child;
        if last != NIL {
            if let NodeKind::Text(t) = self.doc.nodes[last as usize].kind {
                let extent = &mut self.doc.extents[last as usize];
                match &mut self.doc.texts[t as usize] {
                    // Clean character data continued by more of it (built
                    // documents write a run in pieces): still one span.
                    TextRepr::Span { end: e, .. }
                        if *e == extent.end && clean == Some((*e, end)) =>
                    {
                        *e = end
                    }
                    // Otherwise the node's raw region grows to cover both
                    // pieces (its outer extent, so region decode never
                    // starts inside a CDATA wrapper); decoding becomes lazy.
                    TextRepr::Dirty(i) => {
                        self.doc.dirty[*i as usize] = DirtyText {
                            start: extent.start,
                            end,
                            cache: OnceLock::new(),
                        }
                    }
                    text => {
                        *text = TextRepr::Dirty(self.doc.dirty.len() as u32);
                        self.doc.dirty.push(DirtyText {
                            start: extent.start,
                            end,
                            cache: OnceLock::new(),
                        });
                    }
                }
                extent.end = end;
                return;
            }
        }
        let t = self.doc.texts.len() as u32;
        let repr = match clean {
            Some((cs, ce)) => TextRepr::Span { start: cs, end: ce },
            None => {
                self.doc.dirty.push(DirtyText {
                    start,
                    end,
                    cache: OnceLock::new(),
                });
                TextRepr::Dirty(self.doc.dirty.len() as u32 - 1)
            }
        };
        self.doc.texts.push(repr);
        self.push_node(NodeKind::Text(t), start, end);
    }

    /// Closes the most recently opened element.
    ///
    /// # Panics
    /// Panics if no element is open.
    pub fn end_element(&mut self) {
        let id = *self
            .stack
            .last()
            .expect("end_element without start_element");
        self.held_space.clear();
        if std::mem::take(&mut self.tag_open) {
            self.out.push_str("/>");
        } else {
            let NodeKind::Element(label) = self.doc.nodes[id as usize].kind else {
                unreachable!("only elements are open")
            };
            self.out.push_str("</");
            self.write_name(label);
            self.out.push('>');
        }
        let end = self.written();
        self.end_element_spanned(end);
    }

    /// Closes the most recently opened element, recording one past the
    /// `>` of its end tag as the element's extent end.
    pub(crate) fn end_element_spanned(&mut self, end: u32) {
        let id = self.stack.pop().expect("end_element without start_element");
        self.doc.extents[id as usize].end = end;
        if self.stack.is_empty() {
            self.finished_root = true;
        }
    }

    /// Finishes the build, returning the document.
    pub fn finish(mut self) -> Result<Document, crate::XmlError> {
        if !self.stack.is_empty() {
            return Err(crate::XmlError::Malformed(format!(
                "{} unclosed element(s) at end of document",
                self.stack.len()
            )));
        }
        if self.doc.root == NIL {
            return Err(crate::XmlError::Malformed(
                "document has no root element".to_string(),
            ));
        }
        if !self.out.is_empty() {
            // Built, not parsed: the serialization is the buffer.
            self.doc.buffer = Arc::from(self.out);
        }
        if self.doc.names.len() != self.doc.vocab.len() {
            // Writing names took a snapshot; the vocabulary is append-only,
            // so an equal length means it is still current.
            self.doc.names = self.doc.vocab.snapshot().into();
        }
        // Drop the doubling slack: the tables are immutable from here on
        // (edits build a fresh document), so capacity == length.
        self.doc.nodes.shrink_to_fit();
        self.doc.extents.shrink_to_fit();
        self.doc.texts.shrink_to_fit();
        self.doc.dirty.shrink_to_fit();
        for recs in self.doc.attrs.values_mut() {
            recs.shrink_to_fit();
        }
        Ok(self.doc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (Vocabulary, Document) {
        let vocab = Vocabulary::new();
        let mut b = TreeBuilder::new(vocab.clone());
        b.start_element_named("a");
        b.start_element_named("b");
        b.text("one");
        b.end_element();
        b.start_element_named("c");
        b.start_element_named("b");
        b.text("two");
        b.end_element();
        b.end_element();
        b.end_element();
        (vocab.clone(), b.finish().unwrap())
    }

    #[test]
    fn text_records_are_12_bytes() {
        // A plain column entry: two offsets, or a side-table index.
        assert_eq!(std::mem::size_of::<TextRepr>(), 12);
    }

    #[test]
    fn node_records_are_32_bytes() {
        // 24 hot (links + kind) plus 8 cold (source extent).
        assert_eq!(std::mem::size_of::<NodeData>(), 24);
        assert_eq!(std::mem::size_of::<Extent>(), 8);
    }

    #[test]
    fn builder_links_children_in_order() {
        let (vocab, doc) = sample();
        let root = doc.root();
        let kids: Vec<String> = doc
            .children(root)
            .map(|c| vocab.name(doc.label(c).unwrap()).to_string())
            .collect();
        assert_eq!(kids, vec!["b", "c"]);
    }

    #[test]
    fn borrowed_names_match_vocabulary() {
        let (vocab, doc) = sample();
        for n in doc.all_nodes() {
            if let Some(l) = doc.label(n) {
                assert_eq!(doc.name(n), Some(&*vocab.name(l)));
            } else {
                assert_eq!(doc.name(n), None);
            }
        }
    }

    #[test]
    fn node_ids_are_document_order() {
        let (_, doc) = sample();
        let pre: Vec<NodeId> = doc.descendants_or_self(doc.root()).collect();
        let mut sorted = pre.clone();
        sorted.sort();
        assert_eq!(pre, sorted);
        assert_eq!(pre.len(), doc.node_count());
    }

    #[test]
    fn descendants_of_subtree_stay_inside() {
        let (vocab, doc) = sample();
        let c = vocab.lookup("c").unwrap();
        let c_node = doc.nodes_labeled(c).next().unwrap();
        let subtree: Vec<NodeId> = doc.descendants_or_self(c_node).collect();
        assert_eq!(subtree.len(), 3); // c, b, text
        for n in subtree {
            assert!(n == c_node || doc.ancestors(n).any(|a| a == c_node));
        }
    }

    #[test]
    fn string_value_concatenates_descendant_text() {
        let (_, doc) = sample();
        assert_eq!(doc.string_value(doc.root()), "onetwo");
    }

    #[test]
    fn text_nodes_merge() {
        let vocab = Vocabulary::new();
        let mut b = TreeBuilder::new(vocab);
        b.start_element_named("a");
        b.text("x");
        b.text("y");
        b.end_element();
        let doc = b.finish().unwrap();
        assert_eq!(doc.node_count(), 2);
        let t = doc.first_child(doc.root()).unwrap();
        assert_eq!(doc.text(t), Some("xy"));
    }

    #[test]
    fn unclosed_element_is_an_error() {
        let vocab = Vocabulary::new();
        let mut b = TreeBuilder::new(vocab);
        b.start_element_named("a");
        assert!(b.finish().is_err());
    }

    #[test]
    fn depth_and_ancestors() {
        let (_, doc) = sample();
        let deepest = doc.all_nodes().max_by_key(|&n| doc.depth(n)).unwrap();
        assert_eq!(doc.depth(deepest), 3);
        assert_eq!(doc.max_depth(), 3);
        assert_eq!(doc.ancestors(deepest).count(), 3);
        assert_eq!(doc.depth(doc.root()), 0);
    }

    #[test]
    fn attributes_are_retrievable() {
        let vocab = Vocabulary::new();
        let mut b = TreeBuilder::new(vocab);
        b.start_element_named("a");
        b.attribute("id", "7");
        b.end_element();
        let doc = b.finish().unwrap();
        assert_eq!(doc.attribute(doc.root(), "id"), Some("7"));
        assert_eq!(doc.attribute(doc.root(), "nope"), None);
        let pairs: Vec<(String, String)> = doc
            .attributes(doc.root())
            .map(|(n, v)| (n.to_string(), v.to_string()))
            .collect();
        assert_eq!(pairs, vec![("id".to_string(), "7".to_string())]);
    }

    #[test]
    fn built_documents_hold_their_serialization_and_extents() {
        let (_, doc) = sample();
        let xml = "<a><b>one</b><c><b>two</b></c></a>";
        assert_eq!(doc.raw_source(), xml);
        let c = doc.last_child(doc.root()).unwrap();
        let (cs, ce) = doc.node_extent(c);
        assert_eq!(&xml[cs..ce], "<c><b>two</b></c>");
        let s = doc.memory_summary();
        assert_eq!(s.buffer_bytes, xml.len());
        assert_eq!(s.owned_bytes, 0);
        crate::testing::assert_canonical(&doc, "sample");
    }

    /// Builds `<a>` with `f` filling it in.
    fn build_in_a(f: impl FnOnce(&mut TreeBuilder)) -> Document {
        let mut b = TreeBuilder::new(Vocabulary::new());
        b.start_element_named("a");
        f(&mut b);
        b.end_element();
        b.finish().unwrap()
    }

    #[test]
    fn adjacent_text_calls_make_one_canonical_node() {
        for pieces in [
            &["x", "y"][..],
            &["x", " ", "y"],
            &["a<", "&b", ">c"],
            &["clean", "&dirty"],
            &["&dirty", "clean"],
            &["one", "two", "three"],
        ] {
            let doc = build_in_a(|b| pieces.iter().for_each(|p| b.text(p)));
            assert_eq!(doc.node_count(), 2, "{pieces:?}");
            let t = doc.first_child(doc.root()).unwrap();
            assert_eq!(doc.text(t), Some(pieces.concat().as_str()));
            crate::testing::assert_canonical(&doc, &format!("{pieces:?}"));
        }
    }

    #[test]
    fn escaped_text_and_attributes_are_canonical_and_decoded() {
        let doc = build_in_a(|b| {
            b.attribute("k", "say \"hi\" & <go>");
            b.attribute("plain", "v");
            b.text("x < y & z > w");
            b.start_element_named("e");
            b.attribute("q", "'");
            b.end_element();
            b.text("tail");
        });
        assert_eq!(
            doc.raw_source(),
            "<a k=\"say &quot;hi&quot; &amp; &lt;go>\" plain=\"v\">\
             x &lt; y &amp; z &gt; w<e q=\"'\"/>tail</a>"
        );
        let t = doc.first_child(doc.root()).unwrap();
        // Entity-bearing text is decoded as it is built, not on first use.
        assert_eq!(
            doc.memory_summary().entity_cache_bytes,
            "x < y & z > w".len()
        );
        assert_eq!(doc.text(t), Some("x < y & z > w"));
        assert_eq!(doc.attribute(doc.root(), "k"), Some("say \"hi\" & <go>"));
        crate::testing::assert_canonical(&doc, "escapes");
    }

    #[test]
    fn whitespace_only_text_is_dropped_as_a_parse_drops_it() {
        let cases: [(&[&str], &str); 5] = [
            (&["  "], "<a/>"),
            (&[" ", "\n\t"], "<a/>"),
            (&["  ", "x"], "<a>  x</a>"),
            (&["x", "  "], "<a>x  </a>"),
            (&["", "\n"], "<a/>"),
        ];
        for (pieces, xml) in cases {
            let doc = build_in_a(|b| pieces.iter().for_each(|p| b.text(p)));
            assert_eq!(doc.raw_source(), xml, "{pieces:?}");
            crate::testing::assert_canonical(&doc, xml);
        }
        // Held-back whitespace before markup goes; after text it stays.
        let doc = build_in_a(|b| {
            b.text(" ");
            b.start_element_named("b");
            b.end_element();
            b.text("t ");
            b.start_element_named("c");
            b.end_element();
            b.text("\n");
        });
        assert_eq!(doc.raw_source(), "<a><b/>t <c/></a>");
        crate::testing::assert_canonical(&doc, "around markup");
    }

    #[test]
    #[should_panic(expected = "open start tag")]
    fn attribute_after_content_panics() {
        build_in_a(|b| {
            b.text("x");
            b.attribute("k", "v");
        });
    }

    #[test]
    #[should_panic(expected = "open start tag")]
    fn attribute_after_a_child_panics() {
        build_in_a(|b| {
            b.start_element_named("b");
            b.end_element();
            b.attribute("k", "v");
        });
    }

    #[test]
    #[should_panic(expected = "one root")]
    fn second_root_panics() {
        let vocab = Vocabulary::new();
        let mut b = TreeBuilder::new(vocab);
        b.start_element_named("a");
        b.end_element();
        b.start_element_named("b");
    }
}
