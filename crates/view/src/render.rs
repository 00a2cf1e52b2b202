//! Rendering answers through a view, without building it.
//!
//! A group's answer is the *view image* of each answer node: the view
//! subtree rooted at it, serialized. [`crate::materialize_fragment`]
//! defines those bytes by building a fragment document with naive σ;
//! [`ViewRenderer`] writes the same bytes straight into the answer's
//! `String`. It runs the same σ-walk as materialization, with two
//! differences:
//!
//! * each σ(A, B) is compiled once into a [`LocalPath`] that walks the
//!   origin's subtree in place — the first time a render needs it, and
//!   kept for the renderer's life (the engine makes one renderer per
//!   registered view), so registering a view stays as cheap as before and
//!   no request after the first compiles anything;
//! * the walk's sink is the answer text: tag names from the view's
//!   vocabulary, the origin's direct text through
//!   [`smoqe_xml::serialize::escape_text`], `/>` for a view element
//!   without content.
//!
//! Nothing proportional to the view or the document is built: a warm
//! render allocates only what `out` grows by.

use crate::materialize::{build, fragment_root, Sigmas, ViewSink};
use crate::spec::{ViewError, ViewSpec};
use smoqe_hype::{LocalPath, LocalScratch};
use smoqe_xml::serialize::escape_text;
use smoqe_xml::{Document, Label, NodeId};
use std::sync::{Arc, OnceLock};

/// A view whose σ are compiled for rendering answers.
#[derive(Debug)]
pub struct ViewRenderer {
    spec: Arc<ViewSpec>,
    /// By view type (label index), σ of each of its
    /// [`ViewSpec::view_children`], in that order (`None`: no σ).
    /// Each compiled on first use.
    sigmas: Vec<Box<[OnceLock<Option<LocalPath>>]>>,
    /// Element names by label index, covering every view type.
    names: Vec<Arc<str>>,
}

/// Reusable storage for [`ViewRenderer::render`]: one per thread that
/// renders, reused across its answers.
#[derive(Debug, Default)]
pub struct RenderScratch {
    local: LocalScratch,
    found: Vec<NodeId>,
}

impl ViewRenderer {
    /// A renderer for `spec`; its σ compile on first use.
    pub fn new(spec: Arc<ViewSpec>) -> Self {
        let dtd = spec.view_dtd();
        let width = dtd.element_types().map(|l| l.index() + 1).max();
        let mut sigmas: Vec<Box<[OnceLock<Option<LocalPath>>]>> =
            (0..width.unwrap_or(0)).map(|_| Box::default()).collect();
        for a in dtd.element_types() {
            sigmas[a.index()] = spec
                .view_children(a)
                .iter()
                .map(|_| OnceLock::new())
                .collect();
        }
        // Every label of the view was interned when its DTD was parsed.
        let names = spec.vocabulary().snapshot();
        ViewRenderer {
            spec,
            sigmas,
            names,
        }
    }

    /// Appends the view image of `node` to `out`: exactly the bytes of
    /// `materialize_fragment(spec, source, node)?.doc.raw_source()`.
    /// `tick` is called once per view element written; its first `Err`
    /// stops the render and is returned. A `node` whose label is not a
    /// view type is the fragment's error, as
    /// [`crate::materialize_fragment`] reports it.
    pub fn render<E: From<ViewError>>(
        &self,
        source: &Document,
        node: NodeId,
        out: &mut String,
        scratch: &mut RenderScratch,
        tick: impl FnMut() -> Result<(), E>,
    ) -> Result<(), E> {
        let ty = fragment_root(&self.spec, source, node)?;
        let mut sink = Writer {
            names: &self.names,
            out,
            open: false,
            tick,
        };
        scratch.found.clear();
        let mut sigmas = Compiled {
            spec: &self.spec,
            sigmas: &self.sigmas,
            scratch: &mut scratch.local,
        };
        build(
            &self.spec,
            source,
            node,
            ty,
            &mut sigmas,
            &mut sink,
            &mut scratch.found,
        )
    }
}

/// σ by compiled local paths.
struct Compiled<'r> {
    spec: &'r ViewSpec,
    sigmas: &'r [Box<[OnceLock<Option<LocalPath>>]>],
    scratch: &'r mut LocalScratch,
}

impl Sigmas for Compiled<'_> {
    fn select(
        &mut self,
        source: &Document,
        ty: Label,
        edge: usize,
        node: NodeId,
        out: &mut Vec<NodeId>,
    ) {
        let compiled = self.sigmas[ty.index()][edge].get_or_init(|| {
            let sigma = self.spec.sigma(ty, self.spec.view_children(ty)[edge])?;
            Some(LocalPath::new(&smoqe_automata::compile(
                sigma,
                self.spec.vocabulary(),
            )))
        });
        if let Some(sigma) = compiled {
            sigma.select(source, node, self.scratch, out);
        }
    }
}

/// The answer text as a view sink: the bytes a `TreeBuilder` writes for
/// the same calls.
struct Writer<'w, T> {
    names: &'w [Arc<str>],
    out: &'w mut String,
    /// Whether the innermost element's start tag still lacks its `>`.
    open: bool,
    tick: T,
}

impl<T> Writer<'_, T> {
    fn content(&mut self) {
        if std::mem::take(&mut self.open) {
            self.out.push('>');
        }
    }
}

impl<E, T: FnMut() -> Result<(), E>> ViewSink for Writer<'_, T> {
    type Stop = E;

    fn element(&mut self, ty: Label, _: NodeId) -> Result<(), E> {
        (self.tick)()?;
        self.content();
        self.out.push('<');
        self.out.push_str(&self.names[ty.index()]);
        self.open = true;
        Ok(())
    }

    fn text(&mut self, source: &Document, origin: NodeId) {
        self.content();
        // Escaping is per character, so the escaped pieces concatenate
        // to the escaped direct text.
        for c in source.children(origin) {
            if let Some(piece) = source.text(c) {
                escape_text(piece, self.out);
            }
        }
    }

    fn end(&mut self, ty: Label) {
        if std::mem::take(&mut self.open) {
            self.out.push_str("/>");
        } else {
            self.out.push_str("</");
            self.out.push_str(&self.names[ty.index()]);
            self.out.push('>');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::derive::derive;
    use crate::materialize_fragment;
    use crate::policy::{AccessPolicy, HOSPITAL_POLICY};
    use smoqe_xml::{generate, Dtd, GeneratorConfig, Vocabulary, HOSPITAL_DTD};

    /// Every element of generated documents, rendered through S0 and the
    /// identity view, against the fragment oracle.
    #[test]
    fn renders_the_fragment_oracle_bytes() {
        let vocab = Vocabulary::new();
        let dtd = Dtd::parse(HOSPITAL_DTD, &vocab).unwrap();
        let s0 = derive(&AccessPolicy::parse(dtd.clone(), HOSPITAL_POLICY).unwrap());
        let medication = vocab.lookup("medication").unwrap();
        for spec in [s0, ViewSpec::identity(&dtd)] {
            let renderer = ViewRenderer::new(Arc::new(spec.clone()));
            let mut scratch = RenderScratch::default();
            for seed in 0..8 {
                let config = GeneratorConfig {
                    text_pool: vec!["a & b".into(), "x > y".into(), "plain".into()],
                    ..GeneratorConfig::sized(seed, 400)
                }
                .with_text_pool(medication, vec!["autism".into(), "flu".into()]);
                let doc = generate(&dtd, &config).unwrap();
                for n in doc.all_nodes().filter(|&n| doc.is_element(n)) {
                    let mut out = String::new();
                    let rendered =
                        renderer.render(&doc, n, &mut out, &mut scratch, || Ok::<_, ViewError>(()));
                    match materialize_fragment(&spec, &doc, n) {
                        Ok(fragment) => {
                            rendered.unwrap();
                            assert_eq!(out, fragment.doc.raw_source(), "seed {seed}, {n:?}");
                        }
                        Err(want) => assert_eq!(
                            rendered.unwrap_err().to_string(),
                            want.to_string(),
                            "seed {seed}, {n:?}"
                        ),
                    }
                }
            }
        }
    }
}
