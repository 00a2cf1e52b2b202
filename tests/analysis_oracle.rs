//! The plan analyses against the whole-sweep fixpoints they replaced.
//!
//! `CompiledMfa` computes two greatest fixpoints per plan: the labels
//! every accepting continuation needs (`required_labels`, TAX pruning)
//! and the text values it needs (`StepValues`, the jump-scan value gate).
//! The plan computes them over dense tables with a predecessor worklist.
//! This file keeps the plain formulation as the oracle — sweep every
//! state forward until nothing changes, look guards up in a map, find
//! columns by binary search — and checks on random queries, for the admin
//! and through the S0 view, optimized and not, that both agree exactly.

use proptest::prelude::*;
use rand::SeedableRng;
use smoqe::workloads::hospital;
use smoqe_automata::optimize::optimize;
use smoqe_automata::{compile, CompiledMfa, LabelTest, Mfa, Nfa, NfaId, Pred, PredId, StateId};
use smoqe_rxpath::random::{random_path, QueryGenConfig};
use smoqe_view::{derive, AccessPolicy, ViewSpec};
use smoqe_xml::{Label, LabelSet, Vocabulary};
use std::collections::hash_map::{Entry, HashMap};

/// Per state: `None` when no accepting continuation exists, else the
/// labels on every one.
fn oracle_required_labels(nfa: &Nfa, num_labels: usize) -> Vec<Option<LabelSet>> {
    let n = nfa.state_count();
    let mut req: Vec<Option<LabelSet>> = vec![None; n];
    if n == 0 {
        return req;
    }
    req[nfa.accept().index()] = Some(LabelSet::with_capacity(num_labels));
    let mut changed = true;
    while changed {
        changed = false;
        for s in nfa.states() {
            let mut new: Option<LabelSet> = nfa
                .is_accept(s)
                .then(|| LabelSet::with_capacity(num_labels));
            for e in nfa.eps_edges(s) {
                if let Some(r) = &req[e.target.index()] {
                    new = Some(match new {
                        None => r.clone(),
                        Some(mut cur) => {
                            cur.intersect_with(r);
                            cur
                        }
                    });
                }
            }
            for t in nfa.transitions(s) {
                if let Some(r) = &req[t.target.index()] {
                    let mut contribution = r.clone();
                    if let LabelTest::Label(l) = t.test {
                        contribution.insert(l);
                    }
                    new = Some(match new {
                        None => contribution,
                        Some(mut cur) => {
                            cur.intersect_with(&contribution);
                            cur
                        }
                    });
                }
            }
            if new != req[s.index()] {
                req[s.index()] = new;
                changed = true;
            }
        }
    }
    req
}

/// How many distinct values the value analysis tracks.
const TRACKED_VALUES: usize = 64;

/// The value analysis of the whole MFA, lazily per NFA: per state and
/// column, the values needed at or below the node (`None`: no accepting
/// continuation).
struct OracleValues<'m> {
    mfa: &'m Mfa,
    labels: Vec<Label>,
    values: Vec<(Label, String)>,
    tables: Vec<Option<Vec<Option<u64>>>>,
}

impl OracleValues<'_> {
    fn width(&self) -> usize {
        self.labels.len() + 1
    }

    fn column(&self, label: Option<Label>) -> usize {
        label.map_or(0, |l| self.labels.binary_search(&l).map_or(0, |i| i + 1))
    }

    fn table(&mut self, id: NfaId) -> &Vec<Option<u64>> {
        if self.tables[id.index()].is_none() {
            let table = self.fixpoint(id);
            self.tables[id.index()] = Some(table);
        }
        self.tables[id.index()].as_ref().unwrap()
    }

    fn fixpoint(&mut self, id: NfaId) -> Vec<Option<u64>> {
        let mfa = self.mfa;
        let nfa = mfa.nfa(id);
        let width = self.width();
        let mut guards: HashMap<(PredId, usize), Option<u64>> = HashMap::new();
        for s in nfa.states() {
            for g in nfa.eps_edges(s).iter().filter_map(|e| e.guard) {
                for col in 0..width {
                    if let Entry::Vacant(slot) = guards.entry((g, col)) {
                        slot.insert(self.pred(g, col));
                    }
                }
            }
        }
        let mut table: Vec<Option<u64>> = vec![None; nfa.state_count() * width];
        let mut changed = true;
        while changed {
            changed = false;
            for s in nfa.states() {
                for col in 0..width {
                    let mut new = nfa.is_accept(s).then_some(0);
                    for e in nfa.eps_edges(s) {
                        let Some(after) = table[e.target.index() * width + col] else {
                            continue;
                        };
                        let needed = match e.guard {
                            None => after,
                            Some(g) => match guards[&(g, col)] {
                                None => continue,
                                Some(at_guard) => after | at_guard,
                            },
                        };
                        new = Some(new.map_or(needed, |acc| acc & needed));
                    }
                    for t in nfa.transitions(s) {
                        let next_col = match t.test {
                            LabelTest::Label(l) => self.column(Some(l)),
                            LabelTest::Wildcard => 0,
                        };
                        if let Some(after) = table[t.target.index() * width + next_col] {
                            new = Some(new.map_or(after, |acc| acc & after));
                        }
                    }
                    let slot = &mut table[s.index() * width + col];
                    if new != *slot {
                        *slot = new;
                        changed = true;
                    }
                }
            }
        }
        table
    }

    fn pred(&mut self, pred: PredId, col: usize) -> Option<u64> {
        match self.mfa.pred(pred) {
            Pred::True | Pred::Not(_) => Some(0),
            Pred::TextEq(text) if text.is_empty() || col == 0 => Some(0),
            Pred::TextEq(text) => {
                let label = self.labels[col - 1];
                let id = match self
                    .values
                    .iter()
                    .position(|(l, t)| *l == label && t == text)
                {
                    Some(i) => i,
                    None if self.values.len() < TRACKED_VALUES => {
                        self.values.push((label, text.clone()));
                        self.values.len() - 1
                    }
                    None => return Some(0),
                };
                Some(1 << id)
            }
            Pred::HasPath(sub) => {
                let start = self.mfa.nfa(*sub).start();
                let width = self.width();
                self.table(*sub)[start.index() * width + col]
            }
            Pred::And(parts) => {
                let mut all = 0;
                for &p in parts {
                    all |= self.pred(p, col)?;
                }
                Some(all)
            }
            Pred::Or(parts) => {
                let mut common: Option<u64> = None;
                for &p in parts {
                    if let Some(values) = self.pred(p, col) {
                        common = Some(common.map_or(values, |acc| acc & values));
                    }
                }
                common
            }
        }
    }
}

/// What the plan's step values should be: the value table by id, and
/// per DFA state and plan column the needs of the entered states (value
/// ids per live entered state) — `None` when the plan needs no value.
type OracleSteps = Option<(Vec<(Label, String)>, Vec<Option<Vec<Vec<u32>>>>)>;

fn oracle_step_values(plan: &CompiledMfa) -> OracleSteps {
    let mfa = plan.mfa();
    if !mfa
        .preds()
        .any(|(_, p)| matches!(p, Pred::TextEq(text) if !text.is_empty()))
    {
        return None;
    }
    let mut labels: Vec<Label> = mfa
        .nfas()
        .flat_map(|(_, nfa)| nfa.states().flat_map(|s| nfa.transitions(s)))
        .filter_map(|t| match t.test {
            LabelTest::Label(l) => Some(l),
            LabelTest::Wildcard => None,
        })
        .collect();
    labels.sort_unstable();
    labels.dedup();
    let mut analysis = OracleValues {
        mfa,
        labels,
        values: Vec::new(),
        tables: vec![None; mfa.nfa_count()],
    };
    let table = analysis.table(mfa.top()).clone();
    let top = plan.nfa(mfa.top());
    let dfa = top.dfa().or(top.stripped_dfa())?;
    let width = plan.width();
    let mut label_of = vec![None; width];
    for (label, col) in plan.referenced_labels() {
        label_of[col] = Some(label);
    }
    let mut steps = Vec::new();
    let mut any = false;
    for state in 0..dfa.state_count() as u32 {
        for (col, &label) in label_of.iter().enumerate() {
            let mut entered: Vec<StateId> = Vec::new();
            for &m in dfa.members(state) {
                entered.extend_from_slice(top.row(m, col));
            }
            entered.sort_unstable();
            entered.dedup();
            let mut need = Vec::new();
            let mut free = entered.is_empty();
            let at = analysis.column(label);
            for &s in &entered {
                match table[s.index() * analysis.width() + at] {
                    None => {}
                    Some(0) => free = true,
                    Some(needed) => need.push(
                        (0..64)
                            .filter(|i| needed & (1 << i) != 0)
                            .collect::<Vec<u32>>(),
                    ),
                }
            }
            any |= !free;
            steps.push((!free).then_some(need));
        }
    }
    any.then_some((analysis.values, steps))
}

/// Checks every analysis of `plan` against the oracles.
fn check(plan: &CompiledMfa, what: &str) {
    let mfa = plan.mfa();
    let num_labels = mfa.vocabulary().len();
    for (id, nfa) in mfa.nfas() {
        let want = oracle_required_labels(nfa, num_labels);
        let got = plan.nfa(id).required();
        prop_assert_eq!(got.len(), want.len());
        for (s, (got, want)) in got.iter().zip(&want).enumerate() {
            prop_assert_eq!(got.dead, want.is_none(), "{} N{} s{} dead", what, id.0, s);
            if let Some(want) = want {
                let got: Vec<Label> = got.labels.iter().collect();
                let want: Vec<Label> = want.iter().collect();
                prop_assert_eq!(got, want, "{} N{} s{} labels", what, id.0, s);
            }
        }
    }
    let got = plan.step_values().map(|values| {
        let table: Vec<(Label, String)> = (0..values.value_count() as u32)
            .map(|id| {
                let (l, t) = values.value(id);
                (l, t.to_string())
            })
            .collect();
        let top = plan.nfa(mfa.top());
        let dfa = top.dfa().or(top.stripped_dfa()).expect("a DFA");
        let steps: Vec<Option<Vec<Vec<u32>>>> = (0..dfa.state_count() as u32)
            .flat_map(|d| (0..plan.width()).map(move |col| (d, col)))
            .map(|(d, col)| values.of_step(d, col).map(<[Vec<u32>]>::to_vec))
            .collect();
        (table, steps)
    });
    prop_assert_eq!(got, oracle_step_values(plan), "{} step values", what);
}

fn setup() -> (Vocabulary, ViewSpec, QueryGenConfig) {
    let vocab = Vocabulary::new();
    let dtd = hospital::dtd(&vocab);
    let spec = derive(&AccessPolicy::parse(dtd, hospital::POLICY).unwrap());
    let labels = [
        "hospital",
        "patient",
        "pname",
        "visit",
        "treatment",
        "medication",
        "parent",
        "test",
    ]
    .iter()
    .map(|n| vocab.lookup(n).unwrap())
    .collect();
    let values = vec!["autism".into(), "headache".into(), "flu".into(), "".into()];
    let mut cfg = QueryGenConfig::new(labels, values);
    cfg.max_depth = 5;
    cfg.qualifier_p = 0.5;
    (vocab, spec, cfg)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 128,
        .. ProptestConfig::default()
    })]

    #[test]
    fn analyses_equal_the_whole_sweep_fixpoints(seed in 0u64..1_000_000) {
        let (vocab, spec, cfg) = setup();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let path = random_path(&mut rng, &cfg);
        let admin = compile(&path, &vocab);
        let group = smoqe_rewrite::rewrite(&path, &spec);
        for (mfa, who) in [(admin, "admin"), (group, "group")] {
            check(&CompiledMfa::compile(&mfa), &format!("{who} raw, seed {seed}"));
            check(&CompiledMfa::compile(&optimize(&mfa)), &format!("{who}, seed {seed}"));
        }
    }
}
