//! DTDs: element productions, parsing, validation, recursion analysis.
//!
//! SMOQE views are defined by *annotating a schema* (a DTD, Fig. 3 of the
//! paper), and a "unique feature of the SMOQE view language is that it
//! allows the schema to be recursive". This module provides the schema
//! substrate: a [`Dtd`] maps each element type to a [`ContentModel`]
//! (a regular expression over child element types and `#PCDATA`), can be
//! parsed from standard `<!ELEMENT ...>` syntax, validates documents, and
//! reports structural facts (child alphabets, reachability, recursion) that
//! the view-derivation and rewriting algorithms consume.

use crate::error::XmlError;
use crate::label::{Label, Vocabulary};
use crate::tree::{Document, NodeId};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::fmt;
use std::sync::OnceLock;

/// A regular expression over child content, as written in a DTD.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ContentModel {
    /// `EMPTY` — no children at all.
    Empty,
    /// `ANY` — any sequence of declared elements and text.
    Any,
    /// `(#PCDATA)` — zero or more text nodes.
    Text,
    /// A single child element type.
    Elem(Label),
    /// `(a, b, c)` — concatenation.
    Seq(Vec<ContentModel>),
    /// `(a | b | c)` — alternation.
    Choice(Vec<ContentModel>),
    /// `cp*`.
    Star(Box<ContentModel>),
    /// `cp+`.
    Plus(Box<ContentModel>),
    /// `cp?`.
    Opt(Box<ContentModel>),
    /// `(#PCDATA | a | b)*` — mixed content.
    Mixed(Vec<Label>),
}

impl ContentModel {
    /// All element labels mentioned in this model.
    pub fn labels(&self, out: &mut BTreeSet<Label>) {
        match self {
            ContentModel::Empty | ContentModel::Any | ContentModel::Text => {}
            ContentModel::Elem(l) => {
                out.insert(*l);
            }
            ContentModel::Seq(cs) | ContentModel::Choice(cs) => {
                for c in cs {
                    c.labels(out);
                }
            }
            ContentModel::Star(c) | ContentModel::Plus(c) | ContentModel::Opt(c) => c.labels(out),
            ContentModel::Mixed(ls) => out.extend(ls.iter().copied()),
        }
    }

    /// Whether the model permits text children.
    pub fn allows_text(&self) -> bool {
        matches!(
            self,
            ContentModel::Text | ContentModel::Mixed(_) | ContentModel::Any
        )
    }

    /// Renders the model in DTD syntax (without the outer `<!ELEMENT>`).
    pub fn display<'a>(&'a self, vocab: &'a Vocabulary) -> ContentModelDisplay<'a> {
        ContentModelDisplay { model: self, vocab }
    }
}

/// [`fmt::Display`] adapter for [`ContentModel`].
pub struct ContentModelDisplay<'a> {
    model: &'a ContentModel,
    vocab: &'a Vocabulary,
}

impl fmt::Display for ContentModelDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn go(m: &ContentModel, vocab: &Vocabulary, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match m {
                ContentModel::Empty => write!(f, "EMPTY"),
                ContentModel::Any => write!(f, "ANY"),
                ContentModel::Text => write!(f, "(#PCDATA)"),
                ContentModel::Elem(l) => write!(f, "{}", vocab.name(*l)),
                ContentModel::Seq(cs) => {
                    write!(f, "(")?;
                    for (i, c) in cs.iter().enumerate() {
                        if i > 0 {
                            write!(f, ", ")?;
                        }
                        go(c, vocab, f)?;
                    }
                    write!(f, ")")
                }
                ContentModel::Choice(cs) => {
                    write!(f, "(")?;
                    for (i, c) in cs.iter().enumerate() {
                        if i > 0 {
                            write!(f, " | ")?;
                        }
                        go(c, vocab, f)?;
                    }
                    write!(f, ")")
                }
                ContentModel::Star(c) => {
                    go(c, vocab, f)?;
                    write!(f, "*")
                }
                ContentModel::Plus(c) => {
                    go(c, vocab, f)?;
                    write!(f, "+")
                }
                ContentModel::Opt(c) => {
                    go(c, vocab, f)?;
                    write!(f, "?")
                }
                ContentModel::Mixed(ls) => {
                    write!(f, "(#PCDATA")?;
                    for l in ls {
                        write!(f, " | {}", vocab.name(*l))?;
                    }
                    write!(f, ")*")
                }
            }
        }
        go(self.model, self.vocab, f)
    }
}

/// A document type definition: a root element type plus one production per
/// declared element type.
#[derive(Clone, Debug)]
pub struct Dtd {
    vocab: Vocabulary,
    root: Label,
    productions: BTreeMap<Label, Production>,
}

/// One element type's content model with its compiled matcher. The
/// matcher is built on the first validation that meets the type and then
/// shared by every later one (a `Dtd` behind an `Arc` compiles each model
/// once for all its users); replacing the production drops it.
#[derive(Clone, Debug)]
struct Production {
    model: ContentModel,
    matcher: OnceLock<Matcher>,
}

impl Production {
    fn new(model: ContentModel) -> Self {
        Production {
            model,
            matcher: OnceLock::new(),
        }
    }
}

impl Dtd {
    /// Creates a DTD with the given root and no productions yet.
    pub fn new(vocab: Vocabulary, root: Label) -> Self {
        Dtd {
            vocab,
            root,
            productions: BTreeMap::new(),
        }
    }

    /// The vocabulary element types are interned against.
    pub fn vocabulary(&self) -> &Vocabulary {
        &self.vocab
    }

    /// The root element type.
    pub fn root(&self) -> Label {
        self.root
    }

    /// Overrides the root element type.
    pub fn set_root(&mut self, root: Label) {
        self.root = root;
    }

    /// Adds (or replaces) the production for `label`.
    pub fn add_production(&mut self, label: Label, model: ContentModel) {
        self.productions.insert(label, Production::new(model));
    }

    /// The content model of `label`, if declared.
    pub fn production(&self, label: Label) -> Option<&ContentModel> {
        self.productions.get(&label).map(|p| &p.model)
    }

    /// All declared element types, in label order.
    pub fn element_types(&self) -> impl Iterator<Item = Label> + '_ {
        self.productions.keys().copied()
    }

    /// Number of declared element types.
    pub fn len(&self) -> usize {
        self.productions.len()
    }

    /// Whether no production has been declared.
    pub fn is_empty(&self) -> bool {
        self.productions.is_empty()
    }

    /// The set of element types that may appear as children of `label`.
    pub fn child_types(&self, label: Label) -> BTreeSet<Label> {
        let mut out = BTreeSet::new();
        if let Some(m) = self.production(label) {
            if matches!(m, ContentModel::Any) {
                return self.element_types().collect();
            }
            m.labels(&mut out);
        }
        out
    }

    /// Whether elements of type `label` may contain text.
    pub fn allows_text(&self, label: Label) -> bool {
        self.production(label)
            .is_some_and(ContentModel::allows_text)
    }

    /// Element types reachable from the root (including the root).
    pub fn reachable_types(&self) -> BTreeSet<Label> {
        let mut seen = BTreeSet::new();
        let mut queue = VecDeque::new();
        seen.insert(self.root);
        queue.push_back(self.root);
        while let Some(l) = queue.pop_front() {
            for c in self.child_types(l) {
                if seen.insert(c) {
                    queue.push_back(c);
                }
            }
        }
        seen
    }

    /// Whether the element-type graph has a cycle reachable from the root
    /// (i.e. the DTD is *recursive*, the case SMOQE uniquely supports).
    pub fn is_recursive(&self) -> bool {
        // DFS with colors over the reachable subgraph.
        #[derive(Clone, Copy, PartialEq)]
        enum Color {
            White,
            Grey,
            Black,
        }
        let mut color: HashMap<Label, Color> = HashMap::new();
        let mut stack = vec![(self.root, false)];
        while let Some((l, processed)) = stack.pop() {
            if processed {
                color.insert(l, Color::Black);
                continue;
            }
            match color.get(&l).copied().unwrap_or(Color::White) {
                Color::Grey => return true,
                Color::Black => continue,
                Color::White => {}
            }
            color.insert(l, Color::Grey);
            stack.push((l, true));
            for c in self.child_types(l) {
                match color.get(&c).copied().unwrap_or(Color::White) {
                    Color::Grey => return true,
                    Color::Black => {}
                    Color::White => stack.push((c, false)),
                }
            }
        }
        false
    }

    /// Minimum derivation height per element type: the height of the
    /// shallowest document subtree an element of that type can root.
    /// Types that cannot terminate (pathological DTDs) get `None`.
    pub fn min_heights(&self) -> HashMap<Label, usize> {
        let mut h: HashMap<Label, usize> = HashMap::new();
        // Fixpoint: a type's height is 1 + min over a completing expansion.
        loop {
            let mut changed = false;
            for (&l, p) in &self.productions {
                if let Some(cost) = model_min_height(&p.model, &h) {
                    let entry = h.get(&l).copied();
                    let new = cost + 1;
                    if entry.map(|e| new < e).unwrap_or(true) {
                        h.insert(l, new);
                        changed = true;
                    }
                }
            }
            if !changed {
                return h;
            }
        }
    }

    /// Validates `doc` against this DTD: the root label matches, every
    /// element is declared, and every element's child sequence matches its
    /// content model. The error names the first offending node in document
    /// order.
    pub fn validate(&self, doc: &Document) -> Result<(), XmlError> {
        self.validate_nodes(doc, doc.all_nodes()).map(|_| ())
    }

    /// Validates just `nodes` of `doc` — text nodes are skipped; the root,
    /// if among them, also has its label checked — and returns how many
    /// elements had their content model checked.
    ///
    /// Conformance is local: a document conforms iff its root has the
    /// root type and every element's *own* child sequence matches its
    /// type's model. So when a conforming document is edited, the result
    /// conforms iff the elements whose child sequence is new do — the
    /// parent of each splice point and the inserted elements — and with
    /// `nodes` in document order the error is the one [`Dtd::validate`]
    /// would report.
    pub fn validate_nodes(
        &self,
        doc: &Document,
        nodes: impl IntoIterator<Item = NodeId>,
    ) -> Result<usize, XmlError> {
        let mut checked = 0;
        for n in nodes {
            let Some(l) = doc.label(n) else { continue };
            if n == doc.root() && l != self.root {
                return Err(XmlError::Invalid(format!(
                    "root element is <{}>, DTD requires <{}>",
                    self.vocab.name(l),
                    self.vocab.name(self.root)
                )));
            }
            let Some(production) = self.productions.get(&l) else {
                return Err(XmlError::Invalid(format!(
                    "element <{}> is not declared in the DTD",
                    self.vocab.name(l)
                )));
            };
            let matcher = production
                .matcher
                .get_or_init(|| Matcher::compile(&production.model));
            if !matcher.matches(doc, n) {
                return Err(XmlError::Invalid(format!(
                    "children of <{}> do not match content model {}",
                    self.vocab.name(l),
                    production.model.display(&self.vocab)
                )));
            }
            checked += 1;
        }
        Ok(checked)
    }

    /// Parses standard DTD syntax: a sequence of `<!ELEMENT name (model)>`
    /// declarations (comments allowed). The first declaration names the
    /// root type.
    pub fn parse(input: &str, vocab: &Vocabulary) -> Result<Dtd, XmlError> {
        DtdParser {
            bytes: input.as_bytes(),
            pos: 0,
            vocab,
        }
        .parse_all()
    }

    /// Renders the DTD in standard syntax (parseable by [`Dtd::parse`]).
    pub fn to_dtd_string(&self) -> String {
        let mut out = String::new();
        // Emit the root production first so parse(to_dtd_string()) keeps
        // the same root.
        let mut order: Vec<Label> = vec![self.root];
        order.extend(self.productions.keys().copied().filter(|&l| l != self.root));
        for l in order {
            if let Some(m) = self.production(l) {
                let name = self.vocab.name(l);
                let body = match m {
                    ContentModel::Empty => "EMPTY".to_string(),
                    ContentModel::Any => "ANY".to_string(),
                    // DTD requires the content model to be parenthesized;
                    // Seq/Choice/Text/Mixed already render with parens.
                    ContentModel::Elem(_)
                    | ContentModel::Star(_)
                    | ContentModel::Plus(_)
                    | ContentModel::Opt(_) => format!("({})", m.display(&self.vocab)),
                    _ => m.display(&self.vocab).to_string(),
                };
                out.push_str(&format!("<!ELEMENT {name} {body}>\n"));
            }
        }
        out
    }
}

fn model_min_height(m: &ContentModel, h: &HashMap<Label, usize>) -> Option<usize> {
    match m {
        ContentModel::Empty | ContentModel::Text | ContentModel::Any | ContentModel::Mixed(_) => {
            Some(0)
        }
        ContentModel::Elem(l) => h.get(l).copied(),
        ContentModel::Seq(cs) => {
            let mut max = 0;
            for c in cs {
                max = max.max(model_min_height(c, h)?);
            }
            Some(max)
        }
        ContentModel::Choice(cs) => cs.iter().filter_map(|c| model_min_height(c, h)).min(),
        // Star/Opt can expand to nothing.
        ContentModel::Star(_) | ContentModel::Opt(_) => Some(0),
        ContentModel::Plus(c) => model_min_height(c, h),
    }
}

// ---------------------------------------------------------------------------
// Content-model matching (Thompson NFA over child symbols)
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Sym {
    Elem(Label),
    Text,
}

/// Compiled content model: a small epsilon-NFA over child symbols.
#[derive(Clone, Debug)]
struct Matcher {
    /// eps[s] = states reachable from s via one epsilon edge.
    eps: Vec<Vec<u32>>,
    /// steps[s] = (symbol, target) consuming edges.
    steps: Vec<Vec<(Sym, u32)>>,
    start: u32,
    accept: u32,
    any: bool,
}

impl Matcher {
    fn new_state(&mut self) -> u32 {
        self.eps.push(Vec::new());
        self.steps.push(Vec::new());
        (self.eps.len() - 1) as u32
    }

    fn compile(model: &ContentModel) -> Matcher {
        let mut m = Matcher {
            eps: Vec::new(),
            steps: Vec::new(),
            start: 0,
            accept: 0,
            any: matches!(model, ContentModel::Any),
        };
        let start = m.new_state();
        let accept = m.new_state();
        m.start = start;
        m.accept = accept;
        m.build(model, start, accept);
        m
    }

    /// Wires `model` between states `from` and `to`.
    fn build(&mut self, model: &ContentModel, from: u32, to: u32) {
        match model {
            ContentModel::Empty | ContentModel::Any => self.eps[from as usize].push(to),
            ContentModel::Text => {
                // Zero or more text nodes.
                self.eps[from as usize].push(to);
                self.steps[from as usize].push((Sym::Text, from));
            }
            ContentModel::Elem(l) => self.steps[from as usize].push((Sym::Elem(*l), to)),
            ContentModel::Seq(cs) => {
                let mut cur = from;
                for (i, c) in cs.iter().enumerate() {
                    let next = if i + 1 == cs.len() {
                        to
                    } else {
                        self.new_state()
                    };
                    self.build(c, cur, next);
                    cur = next;
                }
                if cs.is_empty() {
                    self.eps[from as usize].push(to);
                }
            }
            ContentModel::Choice(cs) => {
                for c in cs {
                    self.build(c, from, to);
                }
                if cs.is_empty() {
                    self.eps[from as usize].push(to);
                }
            }
            ContentModel::Star(c) => {
                let hub = self.new_state();
                self.eps[from as usize].push(hub);
                self.eps[hub as usize].push(to);
                let back = self.new_state();
                self.build(c, hub, back);
                self.eps[back as usize].push(hub);
            }
            ContentModel::Plus(c) => {
                let hub = self.new_state();
                self.build(c, from, hub);
                self.eps[hub as usize].push(to);
                let back = self.new_state();
                self.build(c, hub, back);
                self.eps[back as usize].push(hub);
            }
            ContentModel::Opt(c) => {
                self.eps[from as usize].push(to);
                self.build(c, from, to);
            }
            ContentModel::Mixed(ls) => {
                self.eps[from as usize].push(to);
                self.steps[from as usize].push((Sym::Text, from));
                for l in ls {
                    self.steps[from as usize].push((Sym::Elem(*l), from));
                }
            }
        }
    }

    fn closure(&self, set: &mut [bool]) {
        let mut work: Vec<u32> = (0..set.len() as u32).filter(|&s| set[s as usize]).collect();
        while let Some(s) = work.pop() {
            for &t in &self.eps[s as usize] {
                if !set[t as usize] {
                    set[t as usize] = true;
                    work.push(t);
                }
            }
        }
    }

    fn matches(&self, doc: &Document, node: NodeId) -> bool {
        if self.any {
            return true;
        }
        let mut cur = vec![false; self.eps.len()];
        cur[self.start as usize] = true;
        self.closure(&mut cur);
        for child in doc.children(node) {
            let sym = match doc.label(child) {
                Some(l) => Sym::Elem(l),
                None => Sym::Text,
            };
            let mut next = vec![false; self.eps.len()];
            let mut moved = false;
            for (s, &active) in cur.iter().enumerate() {
                if !active {
                    continue;
                }
                for &(edge_sym, t) in &self.steps[s] {
                    if edge_sym == sym {
                        next[t as usize] = true;
                        moved = true;
                    }
                }
            }
            if !moved {
                return false;
            }
            self.closure(&mut next);
            cur = next;
        }
        cur[self.accept as usize]
    }
}

// ---------------------------------------------------------------------------
// DTD syntax parser
// ---------------------------------------------------------------------------

struct DtdParser<'a> {
    bytes: &'a [u8],
    pos: usize,
    vocab: &'a Vocabulary,
}

impl DtdParser<'_> {
    fn err(&self, msg: impl fmt::Display) -> XmlError {
        XmlError::DtdSyntax(format!("{msg} at offset {}", self.pos))
    }

    fn skip_trivia(&mut self) {
        loop {
            while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
                self.pos += 1;
            }
            if self.bytes[self.pos..].starts_with(b"<!--") {
                if let Some(end) = find(self.bytes, self.pos + 4, b"-->") {
                    self.pos = end + 3;
                    continue;
                }
                self.pos = self.bytes.len();
            }
            break;
        }
    }

    fn eat(&mut self, token: &[u8]) -> bool {
        if self.bytes[self.pos..].starts_with(token) {
            self.pos += token.len();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, token: &[u8]) -> Result<(), XmlError> {
        if self.eat(token) {
            Ok(())
        } else {
            Err(self.err(format_args!(
                "expected '{}'",
                String::from_utf8_lossy(token)
            )))
        }
    }

    fn name(&mut self) -> Result<String, XmlError> {
        let start = self.pos;
        while self.pos < self.bytes.len() && is_dtd_name_byte(self.bytes[self.pos]) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("expected a name"));
        }
        Ok(String::from_utf8_lossy(&self.bytes[start..self.pos]).into_owned())
    }

    fn parse_all(mut self) -> Result<Dtd, XmlError> {
        let mut root: Option<Label> = None;
        let mut productions = BTreeMap::new();
        loop {
            self.skip_trivia();
            if self.pos >= self.bytes.len() {
                break;
            }
            self.expect(b"<!ELEMENT")?;
            self.skip_trivia();
            let name = self.name()?;
            let label = self.vocab.intern(&name);
            self.skip_trivia();
            let model = self.content_model()?;
            self.skip_trivia();
            self.expect(b">")?;
            if productions.insert(label, Production::new(model)).is_some() {
                return Err(self.err(format_args!("duplicate declaration for '{name}'")));
            }
            root.get_or_insert(label);
        }
        let root = root.ok_or_else(|| self.err("no element declarations"))?;
        Ok(Dtd {
            vocab: self.vocab.clone(),
            root,
            productions,
        })
    }

    fn content_model(&mut self) -> Result<ContentModel, XmlError> {
        self.skip_trivia();
        if self.eat(b"EMPTY") {
            return Ok(ContentModel::Empty);
        }
        if self.eat(b"ANY") {
            return Ok(ContentModel::Any);
        }
        self.expect(b"(")?;
        self.skip_trivia();
        if self.eat(b"#PCDATA") {
            self.skip_trivia();
            if self.eat(b")") {
                // Optional trailing '*' on (#PCDATA)*.
                self.eat(b"*");
                return Ok(ContentModel::Text);
            }
            let mut labels = Vec::new();
            while self.eat(b"|") {
                self.skip_trivia();
                let n = self.name()?;
                labels.push(self.vocab.intern(&n));
                self.skip_trivia();
            }
            self.expect(b")")?;
            self.expect(b"*")?;
            return Ok(ContentModel::Mixed(labels));
        }
        // Rewind the '(' and parse a grouped particle.
        self.pos -= 1;
        let cp = self.particle()?;
        Ok(cp)
    }

    /// Parses one content particle (name or group, with quantifier).
    fn particle(&mut self) -> Result<ContentModel, XmlError> {
        self.skip_trivia();
        let base = if self.eat(b"(") {
            let first = self.particle()?;
            self.skip_trivia();
            let model = if self.eat(b"|") {
                let mut items = vec![first];
                loop {
                    items.push(self.particle()?);
                    self.skip_trivia();
                    if !self.eat(b"|") {
                        break;
                    }
                }
                ContentModel::Choice(items)
            } else if self.eat(b",") {
                let mut items = vec![first];
                loop {
                    items.push(self.particle()?);
                    self.skip_trivia();
                    if !self.eat(b",") {
                        break;
                    }
                }
                ContentModel::Seq(items)
            } else {
                first
            };
            self.skip_trivia();
            self.expect(b")")?;
            model
        } else {
            let n = self.name()?;
            ContentModel::Elem(self.vocab.intern(&n))
        };
        Ok(if self.eat(b"*") {
            ContentModel::Star(Box::new(base))
        } else if self.eat(b"+") {
            ContentModel::Plus(Box::new(base))
        } else if self.eat(b"?") {
            ContentModel::Opt(Box::new(base))
        } else {
            base
        })
    }
}

fn is_dtd_name_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || matches!(b, b'_' | b'-' | b'.' | b':')
}

fn find(haystack: &[u8], from: usize, needle: &[u8]) -> Option<usize> {
    haystack[from..]
        .windows(needle.len())
        .position(|w| w == needle)
        .map(|i| i + from)
}

/// The hospital DTD of Fig. 3(a) in standard syntax, used across tests,
/// examples and benchmarks.
pub const HOSPITAL_DTD: &str = r#"
<!-- Fig. 3(a): document DTD D -->
<!ELEMENT hospital (patient*)>
<!ELEMENT patient  (pname, visit*, parent*)>
<!ELEMENT pname    (#PCDATA)>
<!ELEMENT parent   (patient)>
<!ELEMENT visit    (treatment, date)>
<!ELEMENT treatment (test | medication)>
<!ELEMENT test     (#PCDATA)>
<!ELEMENT medication (#PCDATA)>
<!ELEMENT date     (#PCDATA)>
"#;

#[cfg(test)]
mod tests {
    use super::*;

    fn hospital() -> (Vocabulary, Dtd) {
        let vocab = Vocabulary::new();
        let dtd = Dtd::parse(HOSPITAL_DTD, &vocab).unwrap();
        (vocab, dtd)
    }

    #[test]
    fn parses_hospital_dtd() {
        let (vocab, dtd) = hospital();
        assert_eq!(dtd.len(), 9);
        assert_eq!(&*vocab.name(dtd.root()), "hospital");
        let patient = vocab.lookup("patient").unwrap();
        let kids = dtd.child_types(patient);
        assert!(kids.contains(&vocab.lookup("pname").unwrap()));
        assert!(kids.contains(&vocab.lookup("visit").unwrap()));
        assert!(kids.contains(&vocab.lookup("parent").unwrap()));
        assert_eq!(kids.len(), 3);
    }

    #[test]
    fn hospital_is_recursive() {
        let (_, dtd) = hospital();
        assert!(dtd.is_recursive()); // patient -> parent -> patient
    }

    #[test]
    fn non_recursive_dtd() {
        let vocab = Vocabulary::new();
        let dtd = Dtd::parse("<!ELEMENT a (b*)><!ELEMENT b (#PCDATA)>", &vocab).unwrap();
        assert!(!dtd.is_recursive());
    }

    #[test]
    fn min_heights_terminate_on_recursion() {
        let (vocab, dtd) = hospital();
        let h = dtd.min_heights();
        // patient can terminate: (pname, visit*, parent*) with zero visits
        // and parents -> height 2 (patient -> pname -> text).
        assert_eq!(h[&vocab.lookup("pname").unwrap()], 1);
        assert_eq!(h[&vocab.lookup("patient").unwrap()], 2);
    }

    #[test]
    fn validates_conforming_document() {
        let (vocab, dtd) = hospital();
        let doc = Document::parse_str(
            "<hospital><patient><pname>Ann</pname>\
             <visit><treatment><medication>autism</medication></treatment><date>d1</date></visit>\
             <parent><patient><pname>Bob</pname></patient></parent>\
             </patient></hospital>",
            &vocab,
        )
        .unwrap();
        dtd.validate(&doc).unwrap();
    }

    #[test]
    fn rejects_wrong_child_order() {
        let (vocab, dtd) = hospital();
        let doc = Document::parse_str(
            "<hospital><patient><visit><treatment><test>t</test></treatment><date>d</date></visit>\
             <pname>Ann</pname></patient></hospital>",
            &vocab,
        )
        .unwrap();
        assert!(dtd.validate(&doc).is_err());
    }

    #[test]
    fn rejects_undeclared_element() {
        let (vocab, dtd) = hospital();
        let doc = Document::parse_str("<hospital><intruder/></hospital>", &vocab).unwrap();
        assert!(dtd.validate(&doc).is_err());
    }

    #[test]
    fn rejects_wrong_root() {
        let (vocab, dtd) = hospital();
        let doc = Document::parse_str("<patient><pname>A</pname></patient>", &vocab).unwrap();
        assert!(dtd.validate(&doc).is_err());
    }

    #[test]
    fn choice_matches_either_arm() {
        let (vocab, dtd) = hospital();
        for content in ["<test>x</test>", "<medication>m</medication>"] {
            let doc = Document::parse_str(
                &format!(
                    "<hospital><patient><pname>A</pname><visit><treatment>{content}</treatment>\
                     <date>d</date></visit></patient></hospital>"
                ),
                &vocab,
            )
            .unwrap();
            dtd.validate(&doc).unwrap();
        }
    }

    #[test]
    fn empty_and_any_models() {
        let vocab = Vocabulary::new();
        let dtd = Dtd::parse(
            "<!ELEMENT a (b, c)><!ELEMENT b EMPTY><!ELEMENT c ANY>",
            &vocab,
        )
        .unwrap();
        let ok = Document::parse_str("<a><b/><c><b/><b/>text</c></a>", &vocab).unwrap();
        dtd.validate(&ok).unwrap();
        let bad = Document::parse_str("<a><b>t</b><c/></a>", &vocab).unwrap();
        assert!(dtd.validate(&bad).is_err());
    }

    #[test]
    fn mixed_content() {
        let vocab = Vocabulary::new();
        let dtd = Dtd::parse("<!ELEMENT a (#PCDATA | b)*><!ELEMENT b (#PCDATA)>", &vocab).unwrap();
        let doc = Document::parse_str("<a>x<b>y</b>z</a>", &vocab).unwrap();
        dtd.validate(&doc).unwrap();
    }

    #[test]
    fn dtd_round_trips_through_text() {
        let (vocab, dtd) = hospital();
        let text = dtd.to_dtd_string();
        let dtd2 = Dtd::parse(&text, &vocab).unwrap();
        assert_eq!(dtd2.root(), dtd.root());
        assert_eq!(dtd2.len(), dtd.len());
        for l in dtd.element_types() {
            assert_eq!(
                dtd2.production(l),
                dtd.production(l),
                "production {}",
                vocab.name(l)
            );
        }
    }

    #[test]
    fn reachability() {
        let vocab = Vocabulary::new();
        let dtd = Dtd::parse(
            "<!ELEMENT a (b)><!ELEMENT b (#PCDATA)><!ELEMENT orphan (#PCDATA)>",
            &vocab,
        )
        .unwrap();
        let reach = dtd.reachable_types();
        assert!(reach.contains(&vocab.lookup("a").unwrap()));
        assert!(reach.contains(&vocab.lookup("b").unwrap()));
        assert!(!reach.contains(&vocab.lookup("orphan").unwrap()));
    }

    #[test]
    fn matchers_are_compiled_once_and_dropped_with_the_production() {
        let (vocab, mut dtd) = hospital();
        let doc = Document::parse_str("<hospital/>", &vocab).unwrap();
        let compiled = |dtd: &Dtd| {
            dtd.productions
                .values()
                .filter(|p| p.matcher.get().is_some())
                .count()
        };
        assert_eq!(compiled(&dtd), 0);
        dtd.validate(&doc).unwrap();
        dtd.validate(&doc).unwrap();
        assert_eq!(compiled(&dtd), 1); // only the type the document uses
        assert_eq!(compiled(&dtd.clone()), 1); // clones keep compiled models
        let hospital = dtd.root();
        dtd.add_production(hospital, ContentModel::Empty);
        assert_eq!(compiled(&dtd), 0);
        dtd.validate(&doc).unwrap();
    }

    #[test]
    fn validate_nodes_counts_elements_and_checks_the_root_label() {
        let (vocab, dtd) = hospital();
        let doc = Document::parse_str(
            "<hospital><patient><pname>A</pname></patient></hospital>",
            &vocab,
        )
        .unwrap();
        // 3 elements + 1 text node.
        assert_eq!(dtd.validate_nodes(&doc, doc.all_nodes()).unwrap(), 3);
        assert_eq!(dtd.validate_nodes(&doc, [NodeId(2), NodeId(3)]).unwrap(), 1);
        let wrong_root =
            Document::parse_str("<patient><pname>A</pname></patient>", &vocab).unwrap();
        assert!(dtd.validate_nodes(&wrong_root, [NodeId(1)]).is_ok());
        let err = dtd.validate_nodes(&wrong_root, [NodeId(0)]).unwrap_err();
        assert_eq!(
            err.to_string(),
            dtd.validate(&wrong_root).unwrap_err().to_string()
        );
    }

    /// Over chains of random valid and invalid edits of a conforming
    /// document, validating only the dirty set gives the verdict — and
    /// the message — of validating the whole result. A set built from
    /// sub-chains recorded on their own and appended is the same set.
    #[test]
    fn dirty_set_validation_agrees_with_whole_document_validation() {
        use crate::edit::{delete_subtree, insert_fragment, replace_subtree};
        use crate::{DirtySet, SplicePlace};
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let fragments = [
            "<visit><treatment><test>mri</test></treatment><date>d</date></visit>",
            "<patient><pname>New</pname></patient>",
            "<parent><patient><pname>Kin</pname><visit><treatment><medication>m\
             </medication></treatment><date>d</date></visit></patient></parent>",
            "<treatment><medication>flu</medication></treatment>",
            "<pname>Other</pname>",
            "<date>d2</date>",
            "<intruder><pname>x</pname></intruder>",
            "<patient><visit/></patient>",
            "<hospital/>",
        ];
        let (mut accepted, mut rejected) = (0, 0);
        for seed in 0..300u64 {
            let (vocab, dtd) = hospital();
            let mut rng = StdRng::seed_from_u64(seed);
            let generated =
                crate::generate(&dtd, &crate::GeneratorConfig::sized(seed, 120)).unwrap();
            // Buffer-backed and buffer-less documents alike.
            let mut doc = if seed % 2 == 0 {
                Document::parse_str(&generated.to_xml(), &vocab).unwrap()
            } else {
                generated
            };
            dtd.validate(&doc).unwrap();
            let mut dirty = DirtySet::default();
            let (mut appended, mut sub_chain, mut sub_spans) =
                (DirtySet::default(), DirtySet::default(), Vec::new());
            for step in 0..rng.random_range(1..5u32) {
                let elements: Vec<NodeId> =
                    doc.all_nodes().filter(|&n| doc.is_element(n)).collect();
                let target = elements[rng.random_range(0..elements.len())];
                let parse = |i: usize| Document::parse_str(fragments[i], &vocab).unwrap();
                // Half the draws are edits the DTD allows at this target,
                // so chains stay valid often enough to compare accepts.
                let name = doc.name(target).unwrap();
                let edited = if rng.random_bool(0.5) {
                    match (name, rng.random_range(0..3u32)) {
                        ("visit", 0) | ("parent", _) => delete_subtree(&doc, target),
                        ("visit", 1) => {
                            insert_fragment(&doc, target, SplicePlace::After, &parse(0))
                        }
                        ("visit", _) => replace_subtree(&doc, target, &parse(0)),
                        ("patient", 0) => {
                            insert_fragment(&doc, target, SplicePlace::Into, &parse(2))
                        }
                        ("patient", _) => replace_subtree(&doc, target, &parse(1)),
                        ("treatment", _) => replace_subtree(&doc, target, &parse(3)),
                        ("pname", 0) => {
                            insert_fragment(&doc, target, SplicePlace::After, &parse(0))
                        }
                        ("pname", _) => replace_subtree(&doc, target, &parse(4)),
                        ("date", _) => replace_subtree(&doc, target, &parse(5)),
                        _ => insert_fragment(&doc, target, SplicePlace::Into, &parse(1)),
                    }
                } else {
                    let fragment = parse(rng.random_range(0..fragments.len()));
                    match rng.random_range(0..5u32) {
                        0 => delete_subtree(&doc, target),
                        1 => replace_subtree(&doc, target, &fragment),
                        2 => insert_fragment(&doc, target, SplicePlace::Into, &fragment),
                        3 => insert_fragment(&doc, target, SplicePlace::Before, &fragment),
                        _ => insert_fragment(&doc, target, SplicePlace::After, &fragment),
                    }
                };
                let Ok((new_doc, span)) = edited else {
                    continue;
                };
                dirty.record(&span);
                sub_chain.record(&span);
                sub_spans.push(span);
                if (seed + u64::from(step)) % 2 == 0 {
                    appended.append(&sub_spans, std::mem::take(&mut sub_chain));
                    sub_spans.clear();
                    assert_eq!(appended.nodes(), dirty.nodes(), "seed {seed} step {step}");
                }
                doc = new_doc;
                // Intermediate states may be invalid; every prefix of the
                // chain must agree all the same.
                let whole = dtd.validate(&doc).map_err(|e| e.to_string());
                let nodes = dirty.nodes();
                let incremental = dtd
                    .validate_nodes(&doc, nodes.iter().copied())
                    .map_err(|e| e.to_string());
                assert_eq!(
                    incremental.clone().map(|_| ()),
                    whole,
                    "seed {seed} step {step}"
                );
                match incremental {
                    Ok(checked) => {
                        assert!(checked <= nodes.len());
                        accepted += 1;
                    }
                    Err(_) => rejected += 1,
                }
            }
        }
        assert!(
            accepted > 50 && rejected > 50,
            "{accepted} ok, {rejected} rejected"
        );
    }

    #[test]
    fn nested_groups_parse() {
        let vocab = Vocabulary::new();
        let dtd = Dtd::parse(
            "<!ELEMENT a ((b | c)+, d?)><!ELEMENT b EMPTY><!ELEMENT c EMPTY><!ELEMENT d EMPTY>",
            &vocab,
        )
        .unwrap();
        let ok = Document::parse_str("<a><c/><b/><d/></a>", &vocab).unwrap();
        dtd.validate(&ok).unwrap();
        let bad = Document::parse_str("<a><d/></a>", &vocab).unwrap();
        assert!(dtd.validate(&bad).is_err());
    }
}
