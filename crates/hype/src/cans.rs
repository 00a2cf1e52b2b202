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

/// One term of a conjunction.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum FTerm {
    /// Truth of a predicate instance.
    Inst(InstId),
    /// Truth of another formula node.
    Sub(FId),
}

/// A formula node.
#[derive(Clone, Debug)]
pub enum FNode {
    /// Conjunction of terms.
    And(Vec<FTerm>),
    /// Disjunction of sub-formulas.
    Or(Vec<FId>),
}

/// Arena of formula nodes built during one evaluation.
#[derive(Default, Debug)]
pub struct FormulaArena {
    nodes: Vec<FNode>,
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

    fn push(&mut self, node: FNode) -> FId {
        self.nodes.push(node);
        FId((self.nodes.len() - 1) as u32)
    }

    /// Conjunction of a base tag with one pending instance.
    pub fn and_inst(&mut self, base: Tag, inst: InstId) -> Tag {
        match base {
            Tag::True => Tag::Formula(self.push(FNode::And(vec![FTerm::Inst(inst)]))),
            Tag::Formula(f) => {
                Tag::Formula(self.push(FNode::And(vec![FTerm::Sub(f), FTerm::Inst(inst)])))
            }
        }
    }

    /// Disjunction of an already-sorted, deduplicated id slice (`None` =
    /// empty disjunction = false, which callers treat as "no tag").
    pub fn or_sorted(&mut self, parts: &[FId]) -> Option<Tag> {
        match parts.len() {
            0 => None,
            1 => Some(Tag::Formula(parts[0])),
            _ => Some(Tag::Formula(self.push(FNode::Or(parts.to_vec())))),
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

    fn eval_node(&self, f: FId, truths: &[Option<bool>]) -> Option<bool> {
        match &self.nodes[f.0 as usize] {
            FNode::And(terms) => {
                let mut all_known = true;
                for t in terms {
                    match self.eval_term(*t, truths) {
                        Some(false) => return Some(false),
                        Some(true) => {}
                        None => all_known = false,
                    }
                }
                if all_known {
                    Some(true)
                } else {
                    None
                }
            }
            FNode::Or(subs) => {
                let mut all_known = true;
                for s in subs {
                    match self.eval_node(*s, truths) {
                        Some(true) => return Some(true),
                        Some(false) => {}
                        None => all_known = false,
                    }
                }
                if all_known {
                    Some(false)
                } else {
                    None
                }
            }
        }
    }

    fn eval_term(&self, t: FTerm, truths: &[Option<bool>]) -> Option<bool> {
        match t {
            FTerm::Inst(i) => truths[i],
            FTerm::Sub(f) => self.eval_node(f, truths),
        }
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
