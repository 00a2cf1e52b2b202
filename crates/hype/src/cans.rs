//! `Cans` (candidate answers) and the validity formulas that guard them.
//!
//! HyPE finds *potential* answer nodes during its single top-down pass:
//! a node reached in an accepting selection state is a **candidate**, but
//! whether it is a real answer can depend on predicates whose witnesses lie
//! in subtrees that have not been traversed yet. The paper (§3,
//! "Evaluator"): *"The potential answer nodes are collected and stored in
//! an auxiliary structure, referred to as Cans (candidate answers), which
//! is often much smaller than the XML document tree. After the traversal
//! of the document tree, HyPE only needs a single pass of Cans to select
//! the nodes that are in the answer."*
//!
//! A candidate's guard is a **monotone boolean formula over predicate
//! instances**: `valid(v, s) = (∨ over predecessor states) ∧ (guards picked
//! up on the ε-path into s)`. Most states carry no guards, so most validity
//! tags stay the constant *true* and never allocate; only genuinely
//! predicate-dependent candidates enter `Cans` with a formula. The final
//! pass evaluates the formula DAG against the resolved instance truths.

/// Index of a predicate instance (a predicate attached to a specific node
/// during this evaluation).
pub type InstId = usize;

/// Index of a formula node in the [`FormulaArena`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct FId(pub u32);

/// A validity tag: either a known constant or a formula over instances.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Tag {
    /// Valid unconditionally.
    True,
    /// Validity given by the formula node.
    Formula(FId),
}

/// One term of a formula node.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum FTerm {
    /// Truth of a predicate instance.
    Inst(InstId),
    /// Truth of another formula node.
    Sub(FId),
}

/// A formula node: the conjunction (`all`) or disjunction of `len`
/// consecutive terms starting at `start` in the arena's flat term list.
#[derive(Clone, Copy, Debug)]
struct FNode {
    all: bool,
    start: u32,
    len: u32,
}

/// Arena of formula nodes built during one evaluation: nodes and their
/// terms live in two flat vectors, so a formula costs no allocation of
/// its own.
#[derive(Default, Debug)]
pub struct FormulaArena {
    nodes: Vec<FNode>,
    terms: Vec<FTerm>,
}

impl FormulaArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of formula nodes allocated (a stats metric: how much
    /// predicate bookkeeping the query actually required).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether no formula was ever needed.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Appends a node over `terms`.
    fn push(&mut self, all: bool, terms: impl IntoIterator<Item = FTerm>) -> Tag {
        let start = self.terms.len();
        self.terms.extend(terms);
        self.nodes.push(FNode {
            all,
            start: start as u32,
            len: (self.terms.len() - start) as u32,
        });
        Tag::Formula(FId((self.nodes.len() - 1) as u32))
    }

    /// Conjunction of a base tag with one pending instance.
    pub fn and_inst(&mut self, base: Tag, inst: InstId) -> Tag {
        match base {
            Tag::True => self.push(true, [FTerm::Inst(inst)]),
            Tag::Formula(f) => self.push(true, [FTerm::Sub(f), FTerm::Inst(inst)]),
        }
    }

    /// Disjunction of an already-sorted, deduplicated id slice (`None` =
    /// empty disjunction = false, which callers treat as "no tag").
    pub fn or_sorted(&mut self, parts: &[FId]) -> Option<Tag> {
        match parts {
            [] => None,
            [only] => Some(Tag::Formula(*only)),
            _ => Some(self.push(false, parts.iter().map(|&f| FTerm::Sub(f)))),
        }
    }

    /// Evaluates `tag` under the given instance truths. Returns `None` if
    /// the tag references an unresolved instance (used to defer instance
    /// finalization until dependencies settle).
    pub fn eval(&self, tag: Tag, truths: &[Option<bool>]) -> Option<bool> {
        match tag {
            Tag::True => Some(true),
            Tag::Formula(f) => self.eval_node(f, truths),
        }
    }

    /// Three-valued conjunction or disjunction: a false term decides a
    /// conjunction, a true one a disjunction; an unknown term leaves the
    /// node unknown unless another decides it.
    fn eval_node(&self, f: FId, truths: &[Option<bool>]) -> Option<bool> {
        let node = self.nodes[f.0 as usize];
        let terms = &self.terms[node.start as usize..(node.start + node.len) as usize];
        let mut all_known = true;
        for &t in terms {
            let value = match t {
                FTerm::Inst(i) => truths[i],
                FTerm::Sub(sub) => self.eval_node(sub, truths),
            };
            match value {
                Some(v) if v != node.all => return Some(v),
                Some(_) => {}
                None => all_known = false,
            }
        }
        all_known.then_some(node.all)
    }
}

/// A candidate entry: a node together with its validity tag.
#[derive(Clone, Copy, Debug)]
pub struct Candidate {
    /// The node (document-order id).
    pub node: u32,
    /// Its validity formula.
    pub tag: Tag,
}

/// The Cans auxiliary structure: candidates pending predicate resolution.
#[derive(Default, Debug)]
pub struct Cans {
    entries: Vec<Candidate>,
}

impl Cans {
    /// Creates an empty Cans.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a candidate.
    pub fn push(&mut self, node: u32, tag: Tag) {
        self.entries.push(Candidate { node, tag });
    }

    /// Number of pending candidates (the paper's "|Cans| ≪ |T|" metric).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no candidate is pending.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The single final pass: keeps candidates whose formulas hold.
    ///
    /// # Panics
    /// Panics if any referenced instance is unresolved — by construction
    /// every instance resolves by the end of the traversal, so this
    /// indicates an evaluator bug.
    pub fn resolve(&self, arena: &FormulaArena, truths: &[Option<bool>]) -> Vec<u32> {
        self.entries
            .iter()
            .filter(|c| {
                arena
                    .eval(c.tag, truths)
                    .expect("all instances resolved after traversal")
            })
            .map(|c| c.node)
            .collect()
    }

    /// Iterates over pending candidates (for visualization).
    pub fn iter(&self) -> impl Iterator<Item = &Candidate> {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn and_inst_builds_conjunction() {
        let mut a = FormulaArena::new();
        let t = a.and_inst(Tag::True, 0);
        let t2 = a.and_inst(t, 1);
        // inst0=true, inst1=true => true
        assert_eq!(a.eval(t2, &[Some(true), Some(true)]), Some(true));
        assert_eq!(a.eval(t2, &[Some(true), Some(false)]), Some(false));
        assert_eq!(a.eval(t2, &[Some(false), Some(true)]), Some(false));
    }

    #[test]
    fn or_sorted_combines() {
        let mut a = FormulaArena::new();
        let f1 = match a.and_inst(Tag::True, 0) {
            Tag::Formula(f) => f,
            _ => unreachable!(),
        };
        let f2 = match a.and_inst(Tag::True, 1) {
            Tag::Formula(f) => f,
            _ => unreachable!(),
        };
        let or = a.or_sorted(&[f1, f2]).unwrap();
        assert_eq!(a.eval(or, &[Some(false), Some(true)]), Some(true));
        assert_eq!(a.eval(or, &[Some(false), Some(false)]), Some(false));
    }

    #[test]
    fn empty_and_singleton_disjunctions_allocate_nothing() {
        let mut a = FormulaArena::new();
        assert_eq!(a.or_sorted(&[]), None);
        assert!(a.is_empty());
        let Tag::Formula(f) = a.and_inst(Tag::True, 0) else {
            unreachable!()
        };
        let before = a.len();
        assert_eq!(a.or_sorted(&[f]), Some(Tag::Formula(f)));
        assert_eq!(a.len(), before);
    }

    #[test]
    fn eval_defers_on_unresolved() {
        let mut a = FormulaArena::new();
        let t = a.and_inst(Tag::True, 0);
        assert_eq!(a.eval(t, &[None]), None);
        // Short-circuit: And with a false leg is false even if another is
        // unresolved.
        let t2 = a.and_inst(t, 1);
        assert_eq!(a.eval(t2, &[None, Some(false)]), Some(false));
    }

    #[test]
    fn cans_resolution_filters() {
        let mut a = FormulaArena::new();
        let mut cans = Cans::new();
        let t0 = a.and_inst(Tag::True, 0);
        let t1 = a.and_inst(Tag::True, 1);
        cans.push(10, t0);
        cans.push(20, t1);
        cans.push(30, Tag::True);
        let kept = cans.resolve(&a, &[Some(true), Some(false)]);
        assert_eq!(kept, vec![10, 30]);
        assert_eq!(cans.len(), 3);
    }
}
