//! View specifications (σ) and their well-formedness checks.
//!
//! A view is defined by a **view DTD** D_V plus, for every edge `(A, B)`
//! of D_V, a Regular XPath query σ(A, B) over the *source* document: the
//! B-children of a view node (which corresponds to a source node of type
//! A) are the source nodes σ(A, B) selects from that node (paper §2/§3,
//! "Specifying XML views" — the DAD/AXSD-style annotation mode). Specs are
//! produced either by hand ([`ViewSpec::parse`], the iSMOQE annotation
//! tool's role) or automatically from an access-control policy
//! ([`crate::derive::derive`]).

use crate::typecheck::{end_types, TypeContext};
use smoqe_rxpath::{parse_path, ParseError, Path};
use smoqe_xml::{ContentModel, Dtd, Label, Vocabulary};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Errors raised by spec construction, parsing or validation.
#[derive(Debug)]
pub enum ViewError {
    /// σ missing for a view-DTD edge.
    MissingSigma(String, String),
    /// σ defined for an edge that is not in the view DTD.
    UnknownEdge(String, String),
    /// σ(A,B) can select the context node itself (nullable), which would
    /// make the view tree infinite.
    NullableSigma(String, String),
    /// σ(A,B) can produce nodes whose type is not B.
    TypeMismatch {
        /// Parent view type.
        parent: String,
        /// Child view type.
        child: String,
        /// The offending end types.
        produces: Vec<String>,
    },
    /// σ(A,B) can never produce any node on documents of the source DTD.
    Unsatisfiable(String, String),
    /// The view root differs from the source root.
    RootMismatch {
        /// View DTD root name.
        view: String,
        /// Source DTD root name.
        source: String,
    },
    /// Spec text syntax error.
    Syntax(String),
    /// Embedded Regular XPath failed to parse.
    Path(ParseError),
    /// DTD part failed to parse.
    Dtd(smoqe_xml::XmlError),
}

impl std::fmt::Display for ViewError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ViewError::MissingSigma(a, b) => write!(f, "missing sigma({a}, {b})"),
            ViewError::UnknownEdge(a, b) => {
                write!(f, "sigma({a}, {b}) does not match a view DTD edge")
            }
            ViewError::NullableSigma(a, b) => write!(
                f,
                "sigma({a}, {b}) may select the context node (nullable path)"
            ),
            ViewError::TypeMismatch {
                parent,
                child,
                produces,
            } => write!(
                f,
                "sigma({parent}, {child}) produces types {{{}}}, expected only {child}",
                produces.join(", ")
            ),
            ViewError::Unsatisfiable(a, b) => write!(
                f,
                "sigma({a}, {b}) can never select a node under the source DTD"
            ),
            ViewError::RootMismatch { view, source } => {
                write!(f, "view root <{view}> differs from source root <{source}>")
            }
            ViewError::Syntax(s) => write!(f, "view spec syntax error: {s}"),
            ViewError::Path(e) => write!(f, "bad path in view spec: {e}"),
            ViewError::Dtd(e) => write!(f, "bad view DTD: {e}"),
        }
    }
}

impl std::error::Error for ViewError {}

/// A complete view definition: view DTD + σ annotations.
#[derive(Clone, Debug)]
pub struct ViewSpec {
    view_dtd: Dtd,
    sigma: BTreeMap<(Label, Label), Path>,
    /// [`ViewSpec::view_children`] by label index, computed once from the
    /// view DTD (which a spec never changes).
    children: Vec<Box<[Label]>>,
}

impl ViewSpec {
    /// A spec over `view_dtd` with no σ assignments yet.
    pub fn new(view_dtd: Dtd) -> Self {
        let width = view_dtd.element_types().map(|l| l.index() + 1).max();
        let mut children = vec![Box::default(); width.unwrap_or(0)];
        for a in view_dtd.element_types() {
            children[a.index()] = view_dtd.child_types(a).into_iter().collect();
        }
        ViewSpec {
            view_dtd,
            sigma: BTreeMap::new(),
            children,
        }
    }

    /// The **identity view** over `dtd`: the view equals the document
    /// (σ(A,B) = B for every edge). Useful as a baseline and in tests —
    /// rewriting over the identity view must preserve every query.
    pub fn identity(dtd: &Dtd) -> Self {
        let mut spec = ViewSpec::new(dtd.clone());
        for a in dtd.element_types() {
            for b in dtd.child_types(a) {
                spec.sigma.insert((a, b), Path::Label(b));
            }
        }
        spec
    }

    /// The view DTD exposed to users.
    pub fn view_dtd(&self) -> &Dtd {
        &self.view_dtd
    }

    /// The vocabulary shared with the source.
    pub fn vocabulary(&self) -> &Vocabulary {
        self.view_dtd.vocabulary()
    }

    /// Sets σ(parent, child).
    pub fn set_sigma(&mut self, parent: Label, child: Label, path: Path) {
        self.sigma.insert((parent, child), path);
    }

    /// σ(parent, child), if defined.
    pub fn sigma(&self, parent: Label, child: Label) -> Option<&Path> {
        self.sigma.get(&(parent, child))
    }

    /// All σ entries in deterministic order.
    pub fn sigmas(&self) -> impl Iterator<Item = (&(Label, Label), &Path)> {
        self.sigma.iter()
    }

    /// The child types of `parent` in the view, in canonical (label)
    /// order — the order the materializer emits them in. Computed once,
    /// when the spec is made; empty for a type the view does not declare.
    pub fn view_children(&self, parent: Label) -> &[Label] {
        self.children.get(parent.index()).map_or(&[], |c| c)
    }

    /// Validates the spec against the source DTD: every view edge has a
    /// non-nullable, type-correct, satisfiable σ; the roots agree.
    pub fn validate(&self, source: &Dtd) -> Result<(), ViewError> {
        let vocab = self.view_dtd.vocabulary();
        let name = |l: Label| vocab.name(l).to_string();
        if self.view_dtd.root() != source.root() {
            return Err(ViewError::RootMismatch {
                view: name(self.view_dtd.root()),
                source: name(source.root()),
            });
        }
        for ((a, b), _) in self.sigma.iter() {
            if !self.view_dtd.child_types(*a).contains(b) {
                return Err(ViewError::UnknownEdge(name(*a), name(*b)));
            }
        }
        for a in self.view_dtd.element_types() {
            for b in self.view_dtd.child_types(a) {
                let Some(path) = self.sigma.get(&(a, b)) else {
                    return Err(ViewError::MissingSigma(name(a), name(b)));
                };
                if path.nullable() {
                    return Err(ViewError::NullableSigma(name(a), name(b)));
                }
                let ends = end_types(path, source, &TypeContext::of(a));
                if ends.is_empty() {
                    return Err(ViewError::Unsatisfiable(name(a), name(b)));
                }
                if ends.iter().any(|t| t != &b) {
                    return Err(ViewError::TypeMismatch {
                        parent: name(a),
                        child: name(b),
                        produces: ends.iter().map(|&t| name(t)).collect(),
                    });
                }
            }
        }
        Ok(())
    }

    /// Parses the textual spec format: `<!ELEMENT ...>` declarations for
    /// the view DTD interleaved with `sigma(A, B) = path` lines.
    pub fn parse(input: &str, vocab: &Vocabulary) -> Result<ViewSpec, ViewError> {
        let mut dtd_text = String::new();
        let mut sigma_lines: Vec<(usize, String)> = Vec::new();
        for (lineno, raw) in input.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if line.starts_with("<!") {
                dtd_text.push_str(line);
                dtd_text.push('\n');
            } else if line.starts_with("sigma(") {
                sigma_lines.push((lineno + 1, line.to_string()));
            } else {
                return Err(ViewError::Syntax(format!(
                    "line {}: expected <!ELEMENT ...> or sigma(...): `{line}`",
                    lineno + 1
                )));
            }
        }
        let view_dtd = Dtd::parse(&dtd_text, vocab).map_err(ViewError::Dtd)?;
        let mut spec = ViewSpec::new(view_dtd);
        for (lineno, line) in sigma_lines {
            let err = |msg: &str| ViewError::Syntax(format!("line {lineno}: {msg}: `{line}`"));
            let rest = line.strip_prefix("sigma(").expect("checked");
            let (pair, rhs) = rest.split_once(')').ok_or_else(|| err("missing `)`"))?;
            let (a, b) = pair
                .split_once(',')
                .ok_or_else(|| err("expected `parent, child`"))?;
            let rhs = rhs
                .trim()
                .strip_prefix('=')
                .ok_or_else(|| err("missing `=`"))?
                .trim();
            let path = parse_path(rhs, vocab).map_err(ViewError::Path)?;
            spec.set_sigma(vocab.intern(a.trim()), vocab.intern(b.trim()), path);
        }
        Ok(spec)
    }

    /// Renders the spec in the Fig. 3(c) style.
    pub fn to_spec_string(&self) -> String {
        let vocab = self.view_dtd.vocabulary();
        let mut out = String::new();
        let mut order: Vec<Label> = vec![self.view_dtd.root()];
        order.extend(
            self.view_dtd
                .element_types()
                .filter(|&l| l != self.view_dtd.root()),
        );
        for a in order {
            let Some(model) = self.view_dtd.production(a) else {
                continue;
            };
            let _ = writeln!(
                out,
                "production: {} -> {}",
                vocab.name(a),
                model.display(vocab)
            );
            for b in self.view_dtd.child_types(a) {
                if let Some(path) = self.sigma.get(&(a, b)) {
                    let _ = writeln!(
                        out,
                        "  sigma({}, {}) = {}",
                        vocab.name(a),
                        vocab.name(b),
                        path.display(vocab)
                    );
                }
            }
        }
        out
    }

    /// Consumes the spec into its parts.
    pub fn into_parts(self) -> (Dtd, BTreeMap<(Label, Label), Path>) {
        (self.view_dtd, self.sigma)
    }
}

/// Helper for derivation and tests: the `(min, max)` occurrence bounds of
/// label `b` in a content model (`u32::MAX` = unbounded).
pub(crate) fn occurrence_bounds(model: &ContentModel, b: Label) -> (u32, u32) {
    const INF: u32 = u32::MAX;
    match model {
        ContentModel::Empty | ContentModel::Text => (0, 0),
        ContentModel::Any => (0, INF),
        ContentModel::Elem(l) => {
            if *l == b {
                (1, 1)
            } else {
                (0, 0)
            }
        }
        ContentModel::Seq(cs) => cs.iter().fold((0, 0), |(mn, mx), c| {
            let (cmn, cmx) = occurrence_bounds(c, b);
            (mn.saturating_add(cmn), mx.saturating_add(cmx))
        }),
        ContentModel::Choice(cs) => {
            if cs.is_empty() {
                return (0, 0);
            }
            let bounds: Vec<(u32, u32)> = cs.iter().map(|c| occurrence_bounds(c, b)).collect();
            (
                bounds.iter().map(|x| x.0).min().unwrap_or(0),
                bounds.iter().map(|x| x.1).max().unwrap_or(0),
            )
        }
        ContentModel::Star(c) => {
            let (_, mx) = occurrence_bounds(c, b);
            (0, if mx > 0 { INF } else { 0 })
        }
        ContentModel::Plus(c) => {
            let (mn, mx) = occurrence_bounds(c, b);
            (mn, if mx > 0 { INF } else { 0 })
        }
        ContentModel::Opt(c) => {
            let (_, mx) = occurrence_bounds(c, b);
            (0, mx)
        }
        ContentModel::Mixed(ls) => {
            if ls.contains(&b) {
                (0, INF)
            } else {
                (0, 0)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smoqe_xml::HOSPITAL_DTD;

    fn setup() -> (Vocabulary, Dtd) {
        let vocab = Vocabulary::new();
        let dtd = Dtd::parse(HOSPITAL_DTD, &vocab).unwrap();
        (vocab, dtd)
    }

    #[test]
    fn identity_spec_validates() {
        let (_, dtd) = setup();
        let spec = ViewSpec::identity(&dtd);
        spec.validate(&dtd).unwrap();
    }

    #[test]
    fn parse_and_print_round_trip() {
        let (vocab, dtd) = setup();
        let text = "\
<!ELEMENT hospital (patient*)>
<!ELEMENT patient (treatment*)>
<!ELEMENT treatment (#PCDATA)>
sigma(hospital, patient) = patient[visit]
sigma(patient, treatment) = visit/treatment
";
        let spec = ViewSpec::parse(text, &vocab).unwrap();
        spec.validate(&dtd).unwrap();
        let printed = spec.to_spec_string();
        assert!(printed.contains("sigma(hospital, patient) = patient[visit]"));
        assert!(printed.contains("sigma(patient, treatment) = visit/treatment"));
    }

    #[test]
    fn validation_catches_missing_sigma() {
        let (vocab, dtd) = setup();
        let text = "<!ELEMENT hospital (patient*)>\n<!ELEMENT patient EMPTY>\n";
        let spec = ViewSpec::parse(text, &vocab).unwrap();
        assert!(matches!(
            spec.validate(&dtd),
            Err(ViewError::MissingSigma(_, _))
        ));
    }

    #[test]
    fn validation_catches_nullable_sigma() {
        let (vocab, dtd) = setup();
        let text = "<!ELEMENT hospital (patient*)>\n<!ELEMENT patient EMPTY>\n\
                    sigma(hospital, patient) = (patient)*\n";
        let spec = ViewSpec::parse(text, &vocab).unwrap();
        assert!(matches!(
            spec.validate(&dtd),
            Err(ViewError::NullableSigma(_, _))
        ));
    }

    #[test]
    fn validation_catches_type_mismatch() {
        let (vocab, dtd) = setup();
        let text = "<!ELEMENT hospital (patient*)>\n<!ELEMENT patient EMPTY>\n\
                    sigma(hospital, patient) = patient/pname\n";
        let spec = ViewSpec::parse(text, &vocab).unwrap();
        assert!(matches!(
            spec.validate(&dtd),
            Err(ViewError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn validation_catches_unsatisfiable_sigma() {
        let (vocab, dtd) = setup();
        let text = "<!ELEMENT hospital (patient*)>\n<!ELEMENT patient EMPTY>\n\
                    sigma(hospital, patient) = pname/patient\n";
        let spec = ViewSpec::parse(text, &vocab).unwrap();
        assert!(matches!(
            spec.validate(&dtd),
            Err(ViewError::Unsatisfiable(_, _))
        ));
    }

    #[test]
    fn validation_catches_root_mismatch() {
        let (vocab, dtd) = setup();
        let text = "<!ELEMENT patient EMPTY>\n";
        let spec = ViewSpec::parse(text, &vocab).unwrap();
        assert!(matches!(
            spec.validate(&dtd),
            Err(ViewError::RootMismatch { .. })
        ));
    }

    #[test]
    fn occurrence_bounds_cover_operators() {
        let (vocab, dtd) = setup();
        let b = vocab.lookup("patient").unwrap();
        let hospital_model = dtd.production(dtd.root()).unwrap();
        assert_eq!(occurrence_bounds(hospital_model, b), (0, u32::MAX));
        let parent = vocab.lookup("parent").unwrap();
        let parent_model = dtd.production(parent).unwrap();
        assert_eq!(occurrence_bounds(parent_model, b), (1, 1));
        let treatment = vocab.lookup("treatment").unwrap();
        let tm = dtd.production(treatment).unwrap();
        let med = vocab.lookup("medication").unwrap();
        assert_eq!(occurrence_bounds(tm, med), (0, 1));
    }
}
