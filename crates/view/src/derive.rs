//! Automatic view derivation from an access-control policy.
//!
//! This is the paper's second view-definition mode (§2): *"for each user
//! group, an authorized security administrator annotates the document
//! schema to specify the part of information that the users are granted or
//! denied access to, using simple boolean predicates; then SMOQE
//! automatically translates the specification to the definition of a
//! (possibly recursively defined) XML view, along with a view schema that
//! is exposed to the users"* — the construction of Fan, Chan &
//! Garofalakis \[3\] reproduced at schema level.
//!
//! ## Algorithm
//!
//! Edges are classified per annotation and context:
//! * explicit `Y` / `[q]` edges **expose** their target (everywhere, even
//!   under denied regions — re-granting);
//! * explicit `N` edges are **crossing**: the child node is hidden but the
//!   path continues through it;
//! * unannotated edges expose in a visible context (inheritance) and cross
//!   in a hidden one.
//!
//! σ(A, B) is then the regular expression of all paths from visible type A
//! through hidden types to an exposure of B — computed by **state
//! elimination** over the hidden-type graph. Cycles of hidden types yield
//! Kleene closures, which is exactly why security views over recursive
//! DTDs need Regular XPath (and why SMOQE exists).
//!
//! ## Documented simplifications (schema-level derivation)
//!
//! * A type explicitly exposed somewhere is exposed by that annotation
//!   uniformly; \[3\]'s per-context type duplication ("dummy types") is not
//!   performed. None of the paper's examples need it.
//! * View-DTD cardinalities: a promoted σ (more than one step) always
//!   yields `B*`; a direct conditional step weakens the source bound
//!   (`(1,1)` becomes `B?`). The paper's Fig. 3 prints `treatment ->
//!   medication` where we derive `medication?` — the condition
//!   `[medication]` on treatments actually guarantees presence, but
//!   proving that requires qualifier reasoning beyond schema-level
//!   derivation.

use crate::policy::{AccessPolicy, Ann};
use crate::spec::{occurrence_bounds, ViewSpec};
use smoqe_rxpath::Path;
use smoqe_xml::{ContentModel, Dtd, Label};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// How an edge behaves during derivation.
#[derive(Clone, Debug, PartialEq, Eq)]
enum EdgeKind {
    /// Terminates a σ path, exposing the target (step carries the
    /// condition, if any).
    Expose(Path),
    /// Continues a σ path through a hidden node.
    Cross(Path),
}

fn classify(ann: Option<&Ann>, child: Label, hidden_context: bool) -> EdgeKind {
    let step = Path::Label(child);
    match ann {
        Some(Ann::Allow) => EdgeKind::Expose(step),
        Some(Ann::Cond(q)) => EdgeKind::Expose(Path::qualified(step, q.clone())),
        Some(Ann::Deny) => EdgeKind::Cross(step),
        None => {
            if hidden_context {
                EdgeKind::Cross(step)
            } else {
                EdgeKind::Expose(step)
            }
        }
    }
}

fn union_opt(slot: &mut Option<Path>, path: Path) {
    *slot = Some(match slot.take() {
        None => path,
        Some(existing) => Path::union([existing, path]),
    });
}

/// Computes σ(A, ·) for one visible source type `a`.
///
/// Returns the map from exposed child type to its σ path.
fn sigma_from(policy: &AccessPolicy, a: Label) -> BTreeMap<Label, Path> {
    let dtd = policy.dtd();
    // Matrix nodes: 0 = the visible context of `a`; 1.. = hidden
    // occurrences of every reachable type.
    let types: Vec<Label> = dtd.reachable_types().into_iter().collect();
    let index: BTreeMap<Label, usize> =
        types.iter().enumerate().map(|(i, &l)| (l, i + 1)).collect();
    let n = types.len() + 1;
    let mut m: Vec<Vec<Option<Path>>> = vec![vec![None; n]; n];
    let mut finals: Vec<BTreeMap<Label, Path>> = vec![BTreeMap::new(); n];

    // Context edges out of `a` (visible context).
    for b in dtd.child_types(a) {
        match classify(policy.annotation(a, b), b, false) {
            EdgeKind::Expose(step) => {
                union_opt_map(&mut finals[0], b, step);
            }
            EdgeKind::Cross(step) => union_opt(&mut m[0][index[&b]], step),
        }
    }
    // Edges out of hidden occurrences.
    for (&x, &xi) in &index {
        for y in dtd.child_types(x) {
            match classify(policy.annotation(x, y), y, true) {
                EdgeKind::Expose(step) => {
                    union_opt_map(&mut finals[xi], y, step);
                }
                EdgeKind::Cross(step) => union_opt(&mut m[xi][index[&y]], step),
            }
        }
    }

    // State elimination of hidden nodes 1..n.
    for k in 1..n {
        let self_loop = m[k][k].take().map(Path::star);
        // Outgoing contributions of k, with the loop folded in.
        let outs: Vec<(usize, Path)> = (0..n)
            .filter(|&j| j != k)
            .filter_map(|j| m[k][j].clone().map(|p| (j, p)))
            .collect();
        let fouts: Vec<(Label, Path)> = finals[k].iter().map(|(&b, p)| (b, p.clone())).collect();
        for i in 0..n {
            if i == k {
                continue;
            }
            let Some(into_k) = m[i][k].take() else {
                continue;
            };
            let prefix = match &self_loop {
                Some(l) => Path::seq([into_k.clone(), l.clone()]),
                None => into_k.clone(),
            };
            for (j, q) in &outs {
                union_opt(&mut m[i][*j], Path::seq([prefix.clone(), q.clone()]));
            }
            for (b, q) in &fouts {
                union_opt_map(&mut finals[i], *b, Path::seq([prefix.clone(), q.clone()]));
            }
        }
        // k fully eliminated.
        for slot in m[k].iter_mut() {
            *slot = None;
        }
        finals[k].clear();
    }
    finals.swap_remove(0)
}

fn union_opt_map(map: &mut BTreeMap<Label, Path>, key: Label, path: Path) {
    match map.remove(&key) {
        None => {
            map.insert(key, path);
        }
        Some(existing) => {
            map.insert(key, Path::union([existing, path]));
        }
    }
}

/// Whether σ(A,B) is a single direct step (`B` or `B[q]`).
fn direct_step(path: &Path) -> Option<bool /* has condition */> {
    match path {
        Path::Label(_) => Some(false),
        Path::Qualified(inner, _) if matches!(**inner, Path::Label(_)) => Some(true),
        _ => None,
    }
}

/// Derives the view specification and view DTD from a policy — the
/// SMOQE automatic view-derivation mode.
///
/// ```
/// use smoqe_view::{derive, AccessPolicy, HOSPITAL_POLICY};
/// use smoqe_xml::{Dtd, Vocabulary, HOSPITAL_DTD};
/// let vocab = Vocabulary::new();
/// let dtd = Dtd::parse(HOSPITAL_DTD, &vocab).unwrap();
/// let policy = AccessPolicy::parse(dtd.clone(), HOSPITAL_POLICY).unwrap();
/// let spec = derive(&policy);
/// spec.validate(&dtd).unwrap();
/// let hospital = vocab.lookup("hospital").unwrap();
/// let patient = vocab.lookup("patient").unwrap();
/// assert_eq!(
///     spec.sigma(hospital, patient).unwrap().display(&vocab).to_string(),
///     "patient[visit/treatment/medication = 'autism']",
/// );
/// ```
pub fn derive(policy: &AccessPolicy) -> ViewSpec {
    let dtd = policy.dtd();
    let vocab = dtd.vocabulary().clone();
    let root = dtd.root();

    // Fixpoint over visible types, collecting sigma entries.
    let mut visible: BTreeSet<Label> = BTreeSet::new();
    let mut sigma: BTreeMap<(Label, Label), Path> = BTreeMap::new();
    let mut queue: VecDeque<Label> = VecDeque::new();
    visible.insert(root);
    queue.push_back(root);
    while let Some(a) = queue.pop_front() {
        for (b, path) in sigma_from(policy, a) {
            sigma.insert((a, b), path);
            if visible.insert(b) {
                queue.push_back(b);
            }
        }
    }

    // View DTD.
    let mut view_dtd = Dtd::new(vocab, root);
    for &a in &visible {
        let children: Vec<(Label, &Path)> = sigma
            .range((a, Label(0))..=(a, Label(u32::MAX)))
            .map(|(&(_, b), p)| (b, p))
            .collect();
        let model = if children.is_empty() {
            if dtd.allows_text(a) {
                ContentModel::Text
            } else {
                ContentModel::Empty
            }
        } else if dtd.allows_text(a) {
            // A text-bearing type keeps its text beside its view children
            // (hiding an element child hides that child, not the text).
            ContentModel::Mixed(children.iter().map(|&(b, _)| b).collect())
        } else {
            let mut items = Vec::new();
            for (b, path) in children {
                let item = match direct_step(path) {
                    Some(conditional) => {
                        let (mn, mx) = occurrence_bounds(dtd.production(a).expect("declared"), b);
                        let (mn, mx) = if conditional { (0, mx) } else { (mn, mx) };
                        match (mn, mx) {
                            (1, 1) => ContentModel::Elem(b),
                            (0, 1) => ContentModel::Opt(Box::new(ContentModel::Elem(b))),
                            (0, _) => ContentModel::Star(Box::new(ContentModel::Elem(b))),
                            (_, _) => ContentModel::Plus(Box::new(ContentModel::Elem(b))),
                        }
                    }
                    // Promoted through hidden regions: multiplicity is a
                    // product over starred/recursive edges - star it.
                    None => ContentModel::Star(Box::new(ContentModel::Elem(b))),
                };
                items.push(item);
            }
            if items.len() == 1 {
                items.pop().expect("len checked")
            } else {
                ContentModel::Seq(items)
            }
        };
        view_dtd.add_production(a, model);
    }

    let mut spec = ViewSpec::new(view_dtd);
    for ((a, b), p) in sigma {
        spec.set_sigma(a, b, p);
    }
    spec
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::HOSPITAL_POLICY;
    use smoqe_xml::{Vocabulary, HOSPITAL_DTD};

    fn derived() -> (Vocabulary, Dtd, ViewSpec) {
        let vocab = Vocabulary::new();
        let dtd = Dtd::parse(HOSPITAL_DTD, &vocab).unwrap();
        let policy = AccessPolicy::parse(dtd.clone(), HOSPITAL_POLICY).unwrap();
        let spec = derive(&policy);
        (vocab, dtd, spec)
    }

    fn sigma_str(vocab: &Vocabulary, spec: &ViewSpec, a: &str, b: &str) -> Option<String> {
        let a = vocab.lookup(a)?;
        let b = vocab.lookup(b)?;
        spec.sigma(a, b).map(|p| p.display(vocab).to_string())
    }

    #[test]
    fn fig3_sigma_matches_paper() {
        let (vocab, _, spec) = derived();
        assert_eq!(
            sigma_str(&vocab, &spec, "hospital", "patient").unwrap(),
            "patient[visit/treatment/medication = 'autism']"
        );
        assert_eq!(
            sigma_str(&vocab, &spec, "patient", "treatment").unwrap(),
            "visit/treatment[medication]"
        );
        assert_eq!(
            sigma_str(&vocab, &spec, "patient", "parent").unwrap(),
            "parent"
        );
        assert_eq!(
            sigma_str(&vocab, &spec, "parent", "patient").unwrap(),
            "patient"
        );
        assert_eq!(
            sigma_str(&vocab, &spec, "treatment", "medication").unwrap(),
            "medication"
        );
        // Exactly the five entries of Fig. 3(c).
        assert_eq!(spec.sigmas().count(), 5);
    }

    #[test]
    fn fig3_hidden_types_are_not_in_the_view() {
        let (vocab, _, spec) = derived();
        for hidden in ["pname", "visit", "test", "date"] {
            let l = vocab.lookup(hidden).unwrap();
            assert!(
                spec.view_dtd().production(l).is_none(),
                "{hidden} should be hidden"
            );
        }
    }

    #[test]
    fn fig3_view_dtd_productions() {
        let (vocab, _, spec) = derived();
        let dtd = spec.view_dtd();
        let show = |name: &str| {
            let l = vocab.lookup(name).unwrap();
            dtd.production(l).unwrap().display(&vocab).to_string()
        };
        assert_eq!(show("hospital"), "patient*");
        // Canonical label order: parent was interned before treatment.
        assert_eq!(show("patient"), "(parent*, treatment*)");
        assert_eq!(show("parent"), "patient");
        // The paper prints `medication`; schema-level derivation weakens
        // the choice (test | medication) to `medication?` (see module
        // docs).
        assert_eq!(show("treatment"), "medication?");
        assert_eq!(show("medication"), "(#PCDATA)");
    }

    #[test]
    fn derived_spec_validates_against_source() {
        let (_, dtd, spec) = derived();
        spec.validate(&dtd).unwrap();
    }

    #[test]
    fn view_dtd_is_recursive_like_the_paper_says() {
        let (_, _, spec) = derived();
        assert!(spec.view_dtd().is_recursive());
    }

    #[test]
    fn allow_all_policy_derives_identity_like_view() {
        let vocab = Vocabulary::new();
        let dtd = Dtd::parse(HOSPITAL_DTD, &vocab).unwrap();
        let policy = AccessPolicy::allow_all(dtd.clone());
        let spec = derive(&policy);
        spec.validate(&dtd).unwrap();
        // Every source edge survives with sigma = direct step.
        for a in dtd.element_types() {
            for b in dtd.child_types(a) {
                assert_eq!(spec.sigma(a, b), Some(&Path::Label(b)), "edge missing");
            }
        }
    }

    #[test]
    fn deny_without_regrant_prunes_subtree() {
        let vocab = Vocabulary::new();
        let dtd = Dtd::parse(HOSPITAL_DTD, &vocab).unwrap();
        let policy = AccessPolicy::parse(dtd.clone(), "ann(patient, visit) = N\n").unwrap();
        let spec = derive(&policy);
        spec.validate(&dtd).unwrap();
        let patient = vocab.lookup("patient").unwrap();
        let visit = vocab.lookup("visit").unwrap();
        let treatment = vocab.lookup("treatment").unwrap();
        assert!(spec.sigma(patient, visit).is_none());
        // treatment/test/etc. inherit invisibility - gone entirely.
        assert!(spec.sigma(patient, treatment).is_none());
        assert!(spec.view_dtd().production(visit).is_none());
    }

    #[test]
    fn recursive_hidden_region_yields_closure() {
        // Hide patient's parent chain links: parent crossing, patient
        // re-granted under it. Hiding `parent` (N) while patient is
        // visible makes sigma(patient, patient) = parent/patient... and
        // since parent/patient cycles through a hidden parent each time,
        // the hidden region is acyclic here. Build a deeper cycle: hide
        // both patient (under parent) re-grant... Simplest real closure:
        // hide parent AND patient-under-parent, re-grant pname.
        let vocab = Vocabulary::new();
        let dtd = Dtd::parse(HOSPITAL_DTD, &vocab).unwrap();
        let policy = AccessPolicy::parse(
            dtd.clone(),
            "ann(patient, parent) = N\nann(parent, patient) = N\nann(patient, pname) = Y\n",
        )
        .unwrap();
        let spec = derive(&policy);
        spec.validate(&dtd).unwrap();
        let patient = vocab.lookup("patient").unwrap();
        let pname = vocab.lookup("pname").unwrap();
        let hospital = vocab.lookup("hospital").unwrap();
        // From hospital, patient is visible directly.
        assert!(spec.sigma(hospital, patient).is_some());
        // pname of a patient: its own pname, or any ancestor-chain pname
        // through the hidden parent/patient cycle -> needs a closure.
        let s = spec.sigma(patient, pname).unwrap();
        assert!(s.has_closure(), "expected closure in {}", s.display(&vocab));
        // And patient itself no longer has patient-children in the view.
        assert!(spec.sigma(patient, patient).is_none());
    }

    #[test]
    fn conditional_regrant_under_denied_region() {
        let vocab = Vocabulary::new();
        let dtd = Dtd::parse(HOSPITAL_DTD, &vocab).unwrap();
        // visit hidden, treatment conditionally re-granted.
        let policy = AccessPolicy::parse(
            dtd.clone(),
            "ann(patient, visit) = N\nann(visit, treatment) = [medication]\n",
        )
        .unwrap();
        let spec = derive(&policy);
        spec.validate(&dtd).unwrap();
        assert_eq!(
            sigma_str(&vocab, &spec, "patient", "treatment").unwrap(),
            "visit/treatment[medication]"
        );
    }

    #[test]
    fn a_mixed_type_keeps_its_text_beside_its_view_children() {
        let vocab = Vocabulary::new();
        let dtd = Dtd::parse(
            "<!ELEMENT lib (book*)>\n\
             <!ELEMENT book (#PCDATA | note | price)*>\n\
             <!ELEMENT note (#PCDATA)>\n\
             <!ELEMENT price (#PCDATA)>\n",
            &vocab,
        )
        .unwrap();
        let policy = AccessPolicy::parse(dtd.clone(), "ann(book, price) = N\n").unwrap();
        let spec = derive(&policy);
        spec.validate(&dtd).unwrap();
        let book = vocab.lookup("book").unwrap();
        let note = vocab.lookup("note").unwrap();
        assert_eq!(
            spec.view_dtd().production(book),
            Some(&ContentModel::Mixed(vec![note]))
        );
        assert!(spec.view_dtd().allows_text(book));
        assert!(sigma_str(&vocab, &spec, "book", "price").is_none());
    }
}
