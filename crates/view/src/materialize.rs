//! View materialization.
//!
//! SMOQE never materializes views in production — that is the whole point
//! ("views are necessarily virtual", §1). Materialization exists here for
//! two purposes the paper itself relies on:
//!
//! * **semantics**: V(T) *defines* what the view contains; the rewriting
//!   correctness statement is `Q′(T) = Q(V(T))`, which the integration
//!   suite checks literally using this module;
//! * **baseline**: experiment E6 compares virtual-view answering against
//!   the materialize-then-evaluate strategy.
//!
//! Each view node corresponds to (is a copy of) a source node; the
//! [`MaterializedView`] keeps that origin mapping so view-side answers can
//! be compared against source-side answers of rewritten queries.
//!
//! The same σ-walk also *counts* V(T) without building it
//! ([`view_node_count`]), and counts what a few top-level subtrees
//! contribute ([`region_node_count`]) — how the engine's write path keeps
//! a group's view-side node counts without materializing the view.

use crate::spec::{ViewError, ViewSpec};
use smoqe_rxpath::{evaluate_from, Path};
use smoqe_xml::{Document, Label, NodeId, TreeBuilder};

/// A materialized view document plus the view→source node mapping.
pub struct MaterializedView {
    /// The view document V(T).
    pub doc: Document,
    /// `origins[i]` = the source node the view node `i` was copied from.
    pub origins: Vec<NodeId>,
}

impl MaterializedView {
    /// The source node a view node was copied from.
    pub fn origin(&self, view_node: NodeId) -> NodeId {
        self.origins[view_node.index()]
    }

    /// Maps a set of view nodes to their (deduplicated, sorted) source
    /// origins.
    pub fn origins_of(&self, view_nodes: impl IntoIterator<Item = NodeId>) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = view_nodes.into_iter().map(|n| self.origin(n)).collect();
        v.sort_unstable();
        v.dedup();
        v
    }
}

/// Checks the only ways materializing `spec` over `source` can fail: the
/// source root must carry the view root's label, and no σ may be nullable
/// (a nullable σ would make V(T) infinite). The second is a property of
/// the spec alone, so on a fixed spec this is a root-label check.
pub fn materializable(spec: &ViewSpec, source: &Document) -> Result<(), ViewError> {
    let vocab = source.vocabulary();
    let view_root_ty = spec.view_dtd().root();
    let src_root_ty = source.label(source.root());
    if src_root_ty != Some(view_root_ty) {
        return Err(ViewError::RootMismatch {
            view: vocab.name(view_root_ty).to_string(),
            source: src_root_ty
                .map(|l| vocab.name(l).to_string())
                .unwrap_or_default(),
        });
    }
    for ((a, b), p) in spec.sigmas() {
        if p.nullable() {
            return Err(ViewError::NullableSigma(
                vocab.name(*a).to_string(),
                vocab.name(*b).to_string(),
            ));
        }
    }
    Ok(())
}

/// Materializes `spec` over `source`, producing V(T).
///
/// The caller should have run [`ViewSpec::validate`] against the source
/// DTD; materialization itself only requires what [`materializable`]
/// checks.
pub fn materialize(spec: &ViewSpec, source: &Document) -> Result<MaterializedView, ViewError> {
    materializable(spec, source)?;
    let mut sink = Builder::new(source);
    build(
        spec,
        source,
        source.root(),
        spec.view_dtd().root(),
        &mut sink,
    );
    let view = sink.finish();
    debug_assert_eq!(view.doc.node_count(), view.origins.len());
    Ok(view)
}

/// Materializes only the view subtree rooted at `node` (which must carry
/// a view-visible label). This is how answers of rewritten queries are
/// serialized for view users: the *view image* of the answer node — its
/// raw source subtree would leak hidden descendants.
pub fn materialize_fragment(
    spec: &ViewSpec,
    source: &Document,
    node: NodeId,
) -> Result<MaterializedView, ViewError> {
    let vocab = source.vocabulary();
    let ty = source
        .label(node)
        .ok_or_else(|| ViewError::Syntax("fragment root must be an element".to_string()))?;
    if spec.view_dtd().production(ty).is_none() {
        return Err(ViewError::UnknownEdge(
            vocab.name(ty).to_string(),
            "<fragment root not a view type>".to_string(),
        ));
    }
    let mut sink = Builder::new(source);
    build(spec, source, node, ty, &mut sink);
    Ok(sink.finish())
}

/// The set of **source** nodes the view exposes: the origin of every node
/// of V(T), sorted and deduplicated. This is the accessibility relation
/// the policy defines — a node outside this set does not exist as far as
/// the group is concerned. The engine never computes it (its writes
/// resolve targets by rewriting them over the view); the tests use it as
/// the definition a resolved write target must fall inside.
pub fn accessible_nodes(spec: &ViewSpec, source: &Document) -> Result<Vec<NodeId>, ViewError> {
    let view = materialize(spec, source)?;
    let mut nodes = view.origins;
    nodes.sort_unstable();
    nodes.dedup();
    Ok(nodes)
}

/// `materialize(spec, source)?.doc.node_count()`, without building V(T).
pub fn view_node_count(spec: &ViewSpec, source: &Document) -> Result<usize, ViewError> {
    materializable(spec, source)?;
    let mut count = Counter(0);
    build(
        spec,
        source,
        source.root(),
        spec.view_dtd().root(),
        &mut count,
    );
    Ok(count.0)
}

/// Whether view node counts of `spec` are **regional**: whether an edit
/// confined to some top-level subtrees of the source (subtrees of the
/// root's children) changes |V(T)| only by what those subtrees contribute.
///
/// The rule: σ paths and their qualifiers are downward-only (a
/// [`smoqe_rxpath::Path`] has child steps and nothing else), so a view node
/// whose origin lies in the subtree of top-level child `c` — and the whole
/// view subtree below it — is a function of the root's label and of `c`'s
/// subtree alone. V(T) is therefore the root's view node (plus its text,
/// which no edit below the root changes) and, per top-level child, an
/// independent contribution ([`region_node_count`]). The one exception is
/// a σ out of the view root's type that evaluates a qualifier at its own
/// origin, the root (`.[q]/b`, `(b)*[q]`): that qualifier reads every
/// top-level subtree, so for such a spec the region of any edit is the
/// whole document, as it is for every spec when the root is replaced.
pub fn counts_are_regional(spec: &ViewSpec) -> bool {
    let root = spec.view_dtd().root();
    !spec
        .sigmas()
        .any(|((parent, _), sigma)| *parent == root && qualifies_context(sigma))
}

/// Whether `path` can evaluate a qualifier at its context node.
fn qualifies_context(path: &Path) -> bool {
    match path {
        Path::Empty | Path::Label(_) | Path::Wildcard => false,
        Path::Seq(parts) => {
            for part in parts {
                if qualifies_context(part) {
                    return true;
                }
                if !part.nullable() {
                    return false;
                }
            }
            false
        }
        Path::Union(parts) => parts.iter().any(qualifies_context),
        Path::Star(inner) => qualifies_context(inner),
        Path::Qualified(inner, _) => inner.nullable() || qualifies_context(inner),
    }
}

/// The view nodes that the top-level subtrees `tops` (element children of
/// `source`'s root, in document order) contribute to V(T) — for a spec
/// whose counts are regional (see [`counts_are_regional`]), the term those
/// subtrees add to [`view_node_count`]. Counted over a sub-document made
/// of the root and those subtrees, so the work is proportional to the
/// subtrees, not to the document.
pub fn region_node_count(spec: &ViewSpec, source: &Document, tops: &[NodeId]) -> usize {
    let Some(root_ty) = source.label(source.root()) else {
        return 0;
    };
    if tops.is_empty() {
        return 0;
    }
    let region = region_document(source, root_ty, tops);
    debug_assert_eq!(root_ty, spec.view_dtd().root(), "materializable source");
    let mut count = Counter(0);
    build(spec, &region, region.root(), root_ty, &mut count);
    // The sub-document's root has no text: it adds exactly its own node.
    count.0 - 1
}

/// The sub-document [`region_node_count`] counts over: a root labelled
/// `root_ty` holding copies of the subtrees `tops`.
fn region_document(source: &Document, root_ty: Label, tops: &[NodeId]) -> Document {
    let mut builder = TreeBuilder::new(source.vocabulary().clone());
    builder.start_element(root_ty);
    for &top in tops {
        debug_assert_eq!(source.parent(top), Some(source.root()));
        copy_subtree(source, top, &mut builder);
    }
    builder.end_element();
    builder.finish().expect("balanced by construction")
}

fn copy_subtree(source: &Document, node: NodeId, builder: &mut TreeBuilder) {
    match source.label(node) {
        None => builder.text(source.text(node).expect("a node without a label is text")),
        Some(label) => {
            builder.start_element(label);
            for child in source.children(node) {
                copy_subtree(source, child, builder);
            }
            builder.end_element();
        }
    }
}

/// Where the σ-walk of [`build`] puts the view nodes it visits.
trait ViewSink {
    /// Opens a view element copied from `origin`.
    fn element(&mut self, ty: Label, origin: NodeId);
    /// The direct text of the open element's `origin`, placed right
    /// after the element opens and never whitespace-only — so it makes
    /// exactly one text node.
    fn text(&mut self, text: &str, origin: NodeId);
    /// Closes the open element.
    fn end(&mut self);
}

/// Builds V(T) with its origins.
struct Builder {
    builder: TreeBuilder,
    origins: Vec<NodeId>,
}

impl Builder {
    fn new(source: &Document) -> Self {
        Builder {
            builder: TreeBuilder::new(source.vocabulary().clone()),
            origins: Vec::new(),
        }
    }

    fn finish(self) -> MaterializedView {
        let doc = self.builder.finish().expect("balanced by construction");
        MaterializedView {
            doc,
            origins: self.origins,
        }
    }
}

impl ViewSink for Builder {
    fn element(&mut self, ty: Label, origin: NodeId) {
        let vid = self.builder.start_element(ty);
        debug_assert_eq!(vid.index(), self.origins.len());
        self.origins.push(origin);
    }

    fn text(&mut self, text: &str, origin: NodeId) {
        self.builder.text(text);
        self.origins.push(origin);
    }

    fn end(&mut self) {
        self.builder.end_element();
    }
}

/// Counts the nodes of V(T).
struct Counter(usize);

impl ViewSink for Counter {
    fn element(&mut self, _: Label, _: NodeId) {
        self.0 += 1;
    }

    fn text(&mut self, _: &str, _: NodeId) {
        self.0 += 1;
    }

    fn end(&mut self) {}
}

fn build(
    spec: &ViewSpec,
    source: &Document,
    src_node: NodeId,
    ty: Label,
    sink: &mut impl ViewSink,
) {
    sink.element(ty, src_node);
    // Text: if the view type carries text, copy the source node's direct
    // text (concatenated), placed before element children. Whitespace-only
    // text is dropped, as a parse of V(T)'s serialization drops it.
    if spec.view_dtd().allows_text(ty) {
        let text = source.direct_text_cow(src_node);
        if !text.trim_ascii().is_empty() {
            sink.text(&text, src_node);
        }
    }
    // Children per view type, in canonical (label) order - matching the
    // derived view DTD's production order.
    for b in spec.view_children(ty) {
        let Some(sigma) = spec.sigma(ty, b) else {
            continue;
        };
        // σ moves strictly downward (non-nullable), so recursion depth is
        // bounded by the source depth.
        for child_src in evaluate_from(source, sigma, &[src_node]).iter() {
            build(spec, source, child_src, b, sink);
        }
    }
    sink.end();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::derive::derive;
    use crate::policy::{AccessPolicy, HOSPITAL_POLICY};
    use smoqe_xml::{Dtd, Vocabulary, HOSPITAL_DTD};

    const SAMPLE: &str = "<hospital>\
        <patient><pname>Ann</pname>\
          <visit><treatment><medication>autism</medication></treatment><date>d1</date></visit>\
          <visit><treatment><test>blood</test></treatment><date>d2</date></visit>\
          <parent><patient><pname>Pa</pname>\
            <visit><treatment><medication>flu</medication></treatment><date>d3</date></visit>\
          </patient></parent>\
        </patient>\
        <patient><pname>Bob</pname>\
          <visit><treatment><medication>flu</medication></treatment><date>d4</date></visit>\
        </patient>\
      </hospital>";

    fn setup() -> (Vocabulary, Dtd, ViewSpec, Document) {
        let vocab = Vocabulary::new();
        let dtd = Dtd::parse(HOSPITAL_DTD, &vocab).unwrap();
        let policy = AccessPolicy::parse(dtd.clone(), HOSPITAL_POLICY).unwrap();
        let spec = derive(&policy);
        let doc = Document::parse_str(SAMPLE, &vocab).unwrap();
        dtd.validate(&doc).unwrap();
        (vocab, dtd, spec, doc)
    }

    #[test]
    fn hospital_view_contents() {
        let (_, _, spec, doc) = setup();
        let view = materialize(&spec, &doc).unwrap();
        let xml = view.doc.to_xml();
        // Ann took autism medication: exposed, but her name and her test
        // treatment are not; Bob (flu only) is not exposed at all.
        assert_eq!(
            xml,
            "<hospital><patient>\
               <parent><patient><treatment><medication>flu</medication></treatment></patient></parent>\
               <treatment><medication>autism</medication></treatment>\
             </patient></hospital>"
        );
        assert!(!xml.contains("Ann"));
        assert!(!xml.contains("Bob"));
        assert!(!xml.contains("test"));
        assert!(!xml.contains("date"));
    }

    #[test]
    fn view_conforms_to_view_dtd() {
        let (_, _, spec, doc) = setup();
        let view = materialize(&spec, &doc).unwrap();
        spec.view_dtd().validate(&view.doc).unwrap();
    }

    #[test]
    fn origins_point_to_matching_source_nodes() {
        let (_, _, spec, doc) = setup();
        let view = materialize(&spec, &doc).unwrap();
        for vn in view.doc.all_nodes() {
            let origin = view.origin(vn);
            if let Some(l) = view.doc.label(vn) {
                assert_eq!(doc.label(origin), Some(l), "origin label mismatch");
            }
        }
    }

    #[test]
    fn identity_view_reproduces_elements() {
        let (vocab, dtd, _, doc) = setup();
        let spec = ViewSpec::identity(&dtd);
        let view = materialize(&spec, &doc).unwrap();
        // Same element structure (text placement may differ: identity view
        // copies direct text only).
        assert_eq!(view.doc.element_count(), doc.element_count());
        let _ = vocab;
    }

    #[test]
    fn root_mismatch_rejected() {
        let (vocab, _, spec, _) = setup();
        let other = Document::parse_str("<patient><pname>X</pname></patient>", &vocab).unwrap();
        assert!(matches!(
            materialize(&spec, &other),
            Err(ViewError::RootMismatch { .. })
        ));
    }

    #[test]
    fn empty_view_when_nothing_qualifies() {
        let (vocab, _, spec, _) = setup();
        let doc = Document::parse_str(
            "<hospital><patient><pname>Zed</pname>\
             <visit><treatment><test>t</test></treatment><date>d</date></visit>\
             </patient></hospital>",
            &vocab,
        )
        .unwrap();
        let view = materialize(&spec, &doc).unwrap();
        assert_eq!(view.doc.to_xml(), "<hospital/>");
    }

    #[test]
    fn accessible_nodes_expose_exactly_the_view_origins() {
        let (vocab, _, spec, doc) = setup();
        let access = accessible_nodes(&spec, &doc).unwrap();
        let set: std::collections::HashSet<NodeId> = access.iter().copied().collect();
        assert_eq!(set.len(), access.len(), "deduplicated");
        // Every visible medication's source node is accessible; no pname,
        // date or test node is.
        let label = |n: &str| vocab.lookup(n).unwrap();
        let autism_med = doc
            .nodes_labeled(label("medication"))
            .find(|&m| doc.string_value(m) == "autism")
            .unwrap();
        assert!(set.contains(&autism_med));
        assert!(set.contains(&doc.root()));
        for hidden in ["pname", "date", "test"] {
            for n in doc.nodes_labeled(label(hidden)) {
                assert!(!set.contains(&n), "{hidden} must be inaccessible");
            }
        }
        // Bob has no autism medication: his whole subtree is inaccessible.
        let bob = doc
            .nodes_labeled(label("patient"))
            .find(|&p| doc.string_value(p).contains("Bob"))
            .unwrap();
        for n in doc.descendants_or_self(bob) {
            assert!(!set.contains(&n), "Bob's subtree is hidden");
        }
    }

    #[test]
    fn counts_agree_with_materialization_and_add_up_by_region() {
        let (vocab, dtd, spec, doc) = setup();
        let view = materialize(&spec, &doc).unwrap();
        assert_eq!(view_node_count(&spec, &doc).unwrap(), view.doc.node_count());
        // The root's view node plus one term per top-level subtree.
        assert!(counts_are_regional(&spec));
        let tops: Vec<NodeId> = doc.child_elements(doc.root()).collect();
        let each: usize = tops
            .iter()
            .map(|&t| region_node_count(&spec, &doc, &[t]))
            .sum();
        assert_eq!(1 + each, view.doc.node_count());
        assert_eq!(
            1 + region_node_count(&spec, &doc, &tops),
            view.doc.node_count()
        );
        assert_eq!(region_node_count(&spec, &doc, &[]), 0);
        // A root that is not the view's cannot be counted (or viewed).
        let other = Document::parse_str("<patient><pname>X</pname></patient>", &vocab).unwrap();
        assert!(view_node_count(&spec, &other).is_err());
        assert!(materializable(&spec, &other).is_err());
        // A σ out of the root that qualifies the root itself reads every
        // top-level subtree: such counts are not regional.
        let qualifying = ViewSpec::parse(
            "<!ELEMENT hospital (patient*)>\n<!ELEMENT patient EMPTY>\n\
             sigma(hospital, patient) = .[patient/pname = 'Bob']/patient\n",
            &vocab,
        )
        .unwrap();
        qualifying.validate(&dtd).unwrap();
        assert!(!counts_are_regional(&qualifying));
        assert!(counts_are_regional(&ViewSpec::identity(&dtd)));
    }

    #[test]
    fn built_views_fragments_and_regions_are_canonical() {
        use smoqe_xml::testing::assert_canonical;
        use smoqe_xml::{generate, GeneratorConfig};
        let (vocab, dtd, spec, _) = setup();
        let medication = vocab.lookup("medication").unwrap();
        for seed in 0..24 {
            let config = GeneratorConfig {
                text_pool: vec!["a & b".into(), "<x>".into(), "plain".into()],
                ..GeneratorConfig::sized(seed, 600)
            }
            .with_text_pool(medication, vec!["autism".into(), "flu & fever".into()]);
            let doc = generate(&dtd, &config).unwrap();
            let ctx = format!("seed {seed}");
            let view = materialize(&spec, &doc).unwrap();
            assert_canonical(&view.doc, &format!("view; {ctx}"));
            for vn in view
                .doc
                .all_nodes()
                .filter(|&n| view.doc.is_element(n))
                .step_by(7)
            {
                let fragment = materialize_fragment(&spec, &doc, view.origin(vn)).unwrap();
                assert_canonical(&fragment.doc, &format!("fragment of {vn:?}; {ctx}"));
            }
            let root_ty = doc.label(doc.root()).unwrap();
            let tops: Vec<NodeId> = doc.child_elements(doc.root()).collect();
            for chunk in tops.chunks(3) {
                let region = region_document(&doc, root_ty, chunk);
                assert_canonical(&region, &format!("region {chunk:?}; {ctx}"));
            }
        }
    }

    #[test]
    fn recursive_parents_materialize_to_arbitrary_depth() {
        let (vocab, _, spec, _) = setup();
        // Three levels of parent nesting, all with autism medication.
        let xml = "<hospital><patient><pname>A</pname>\
            <visit><treatment><medication>autism</medication></treatment><date>d</date></visit>\
            <parent><patient><pname>B</pname>\
              <visit><treatment><medication>autism</medication></treatment><date>d</date></visit>\
              <parent><patient><pname>C</pname>\
                <visit><treatment><medication>autism</medication></treatment><date>d</date></visit>\
              </patient></parent>\
            </patient></parent>\
          </patient></hospital>";
        let doc = Document::parse_str(xml, &vocab).unwrap();
        let view = materialize(&spec, &doc).unwrap();
        let patient = vocab.lookup("patient").unwrap();
        assert_eq!(view.doc.nodes_labeled(patient).count(), 3);
        spec.view_dtd().validate(&view.doc).unwrap();
    }
}
