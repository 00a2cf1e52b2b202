//! Every table a plan carries, pinned per query.
//!
//! A plan-cache miss runs parse → compile (admin) or rewrite through the
//! view (group) → `optimize` → `CompiledMfa::from_arc`. The tables that
//! pipeline builds — the optimized MFA, every NFA's closures, step rows,
//! required labels and DFAs, the column map, the child chains and the
//! jump-scan step values — are what every evaluator runs on. This test
//! dumps them canonically (labels by name, never by id) and pins one
//! FNV-1a hash per query, so a change to how a plan is *built* cannot
//! change what is built. On a mismatch it prints the dump.

use smoqe::workloads::{hospital, org};
use smoqe_automata::compile::{CompiledNfa, BRANCH, DEAD};
use smoqe_automata::optimize::optimize;
use smoqe_automata::{compile, CompiledMfa, LabelTest, Pred, PredId, StateId};
use smoqe_rxpath::parse_path;
use smoqe_view::{derive, AccessPolicy, ViewSpec};
use smoqe_xml::{Dtd, Label, Vocabulary};
use std::fmt::Write as _;
use std::sync::Arc;

/// 64-bit FNV-1a: a digest that does not depend on the toolchain.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Plans `query` the way the engine does on a cache miss: compiled as
/// written for the admin (`spec` is `None`), rewritten over the view for
/// a group, then optimized and table-compiled.
fn plan(vocab: &Vocabulary, spec: Option<&ViewSpec>, query: &str) -> CompiledMfa {
    let path = parse_path(query, vocab).unwrap_or_else(|e| panic!("`{query}`: {e}"));
    let mfa = match spec {
        None => compile(&path, vocab),
        Some(spec) => smoqe_rewrite::rewrite(&path, spec),
    };
    CompiledMfa::from_arc(Arc::new(optimize(&mfa)))
}

fn name(vocab: &Vocabulary, label: Label) -> String {
    vocab.name(label).to_string()
}

fn states(list: &[StateId]) -> String {
    let names: Vec<String> = list.iter().map(|s| format!("{}", s.0)).collect();
    format!("[{}]", names.join(" "))
}

fn dump_dfa(
    out: &mut String,
    what: &str,
    dfa: Option<&smoqe_automata::compile::DfaTable>,
    width: usize,
) {
    let Some(dfa) = dfa else {
        writeln!(out, "  {what}: none").unwrap();
        return;
    };
    writeln!(
        out,
        "  {what}: start {} states {}",
        entry(dfa.start()),
        dfa.state_count()
    )
    .unwrap();
    for d in 0..dfa.state_count() as u32 {
        let next: Vec<String> = (0..width).map(|col| entry(dfa.step(d, col))).collect();
        writeln!(
            out,
            "    d{d} accept {} members {} next [{}]",
            dfa.accept(d),
            states(dfa.members(d)),
            next.join(" ")
        )
        .unwrap();
    }
    for i in 0..dfa.branch_count() as u32 {
        let b = dfa.branch(BRANCH | i).expect("a branch node");
        writeln!(
            out,
            "    b{i} P{} ? {} : {} members {}",
            b.pred.0,
            entry(b.if_true),
            entry(b.if_false),
            states(dfa.members(BRANCH | i))
        )
        .unwrap();
    }
}

/// A table entry: a state's number, `-` for DEAD, `b<i>` for a branch.
fn entry(e: u32) -> String {
    match e {
        DEAD => "-".to_string(),
        e if e >= BRANCH => format!("b{}", e - BRANCH),
        n => n.to_string(),
    }
}

fn dump_nfa(out: &mut String, vocab: &Vocabulary, compiled: &CompiledNfa, width: usize) {
    writeln!(out, "  compiled states {}", compiled.state_count()).unwrap();
    for i in 0..compiled.state_count() {
        let s = StateId(i as u32);
        let req = &compiled.required()[i];
        let labels: Vec<String> = req.labels.iter().map(|l| name(vocab, l)).collect();
        let rows: Vec<String> = (0..width).map(|col| states(compiled.row(s, col))).collect();
        writeln!(
            out,
            "    s{i} closure {} guarded {} required {} rows {}",
            states(compiled.closure(s)),
            compiled.closure_guarded(s),
            match req.dead {
                true => "dead".to_string(),
                false => format!("{{{}}}", labels.join(" ")),
            },
            rows.join(" ")
        )
        .unwrap();
    }
    dump_dfa(out, "dfa", compiled.dfa(), width);
    match compiled.table().filter(|_| compiled.dfa().is_none()) {
        Some(table) => dump_dfa(out, "table", Some(table), width),
        // The line a guard-free NFA has always printed here, so plans
        // without guards keep their pins.
        None => writeln!(out, "  stripped: none").unwrap(),
    }
}

/// The canonical dump of every table of `plan`.
fn dump(vocab: &Vocabulary, plan: &CompiledMfa) -> String {
    let mut out = String::new();
    let mfa = plan.mfa();
    writeln!(
        out,
        "mfa top {} nfas {} preds {}",
        mfa.top().0,
        mfa.nfa_count(),
        mfa.pred_count()
    )
    .unwrap();
    for (id, nfa) in mfa.nfas() {
        writeln!(
            out,
            "N{} start {} accept {}",
            id.0,
            nfa.start().0,
            nfa.accept().0
        )
        .unwrap();
        for s in nfa.states() {
            let mut edges = Vec::new();
            for e in nfa.eps_edges(s) {
                edges.push(match e.guard {
                    None => format!("eps {}", e.target.0),
                    Some(g) => format!("eps {} [P{}]", e.target.0, g.0),
                });
            }
            for t in nfa.transitions(s) {
                let test = match t.test {
                    LabelTest::Label(l) => name(vocab, l),
                    LabelTest::Wildcard => "*".to_string(),
                };
                edges.push(format!("{test} {}", t.target.0));
            }
            writeln!(out, "  s{}: {}", s.0, edges.join(", ")).unwrap();
        }
        dump_nfa(&mut out, vocab, plan.nfa(id), plan.width());
    }
    for (id, pred) in mfa.preds() {
        let ids = |ps: &[PredId]| -> String {
            let v: Vec<String> = ps.iter().map(|p| format!("P{}", p.0)).collect();
            v.join(" ")
        };
        let text = match pred {
            Pred::True => "true".to_string(),
            Pred::TextEq(t) => format!("text = {t:?}"),
            Pred::HasPath(n) => format!("has N{}", n.0),
            Pred::Not(p) => format!("not P{}", p.0),
            Pred::And(ps) => format!("and {}", ids(ps)),
            Pred::Or(ps) => format!("or {}", ids(ps)),
        };
        writeln!(out, "P{}: {text}", id.0).unwrap();
    }
    let mut cols: Vec<(usize, String)> = plan
        .referenced_labels()
        .map(|(l, col)| (col, name(vocab, l)))
        .collect();
    cols.sort();
    writeln!(out, "width {} columns {cols:?}", plan.width()).unwrap();
    writeln!(out, "max_states {}", plan.max_states()).unwrap();
    for (i, chain) in plan.chains().iter().enumerate() {
        if let Some(chain) = chain {
            let labels: Vec<String> = chain.labels.iter().map(|&l| name(vocab, l)).collect();
            writeln!(
                out,
                "chain P{i}: {} value {:?}",
                labels.join("/"),
                chain.value
            )
            .unwrap();
        }
    }
    match plan.step_values() {
        None => writeln!(out, "step values: none").unwrap(),
        Some(values) => {
            let named: Vec<String> = (0..values.value_count() as u32)
                .map(|id| {
                    let (l, t) = values.value(id);
                    format!("{}={t:?}", name(vocab, l))
                })
                .collect();
            writeln!(out, "step values: [{}]", named.join(" ")).unwrap();
            let top = plan.nfa(mfa.top());
            let dfa = top.table().expect("step values need a table");
            for d in 0..dfa.state_count() as u32 {
                for col in 0..plan.width() {
                    if let Some(needs) = values.of_step(d, col) {
                        writeln!(out, "  d{d} c{col}: {needs:?}").unwrap();
                    }
                }
            }
        }
    }
    out
}

/// Plans every query of `corpus` and checks its dump's hash against the
/// pinned one; reports every mismatch at once, with its dump.
fn check(vocab: &Vocabulary, spec: Option<&ViewSpec>, corpus: &[(&str, u64)]) {
    let mut wrong = String::new();
    for &(query, pinned) in corpus {
        let text = dump(vocab, &plan(vocab, spec, query));
        let got = fnv1a(text.as_bytes());
        if got != pinned {
            writeln!(wrong, "`{query}`: pinned {pinned}, got {got}\n{text}").unwrap();
        }
    }
    assert!(wrong.is_empty(), "plan tables changed:\n{wrong}");
}

fn hospital_view(vocab: &Vocabulary) -> ViewSpec {
    let dtd = hospital::dtd(vocab);
    derive(&AccessPolicy::parse(dtd, hospital::POLICY).unwrap())
}

#[test]
fn admin_plans_of_the_hospital_queries() {
    let vocab = Vocabulary::new();
    hospital::dtd(&vocab);
    let pinned = [
        1_989_551_693_000_370_079,
        12_849_408_495_843_453_382,
        14_897_928_700_017_864_436,
        14_208_977_969_540_691_427,
        2_204_550_427_371_804_780,
        16_345_219_237_037_795_750,
    ];
    let corpus: Vec<(&str, u64)> = hospital::DOC_QUERIES
        .iter()
        .zip(pinned)
        .map(|(&(_, q), h)| (q, h))
        .collect();
    check(&vocab, None, &corpus);
}

#[test]
fn group_plans_of_the_hospital_view_queries() {
    let vocab = Vocabulary::new();
    let spec = hospital_view(&vocab);
    let pinned = [
        185_284_497_184_749_346,
        4_851_504_739_371_753_825,
        16_699_140_691_531_876_222,
        15_040_021_491_734_819_771,
        4_474_817_308_408_684_701,
        11_810_392_769_190_458_452,
    ];
    let corpus: Vec<(&str, u64)> = hospital::VIEW_QUERIES
        .iter()
        .zip(pinned)
        .map(|(&(_, q), h)| (q, h))
        .collect();
    check(&vocab, Some(&spec), &corpus);
}

#[test]
fn group_plans_of_the_cold_shapes() {
    // The benchmark's plan-cache-miss shapes, with one fresh literal.
    let vocab = Vocabulary::new();
    let spec = hospital_view(&vocab);
    check(
        &vocab,
        Some(&spec),
        &[
            (
                "hospital/patient/treatment[medication = 'zz7t0n1']",
                14_806_086_978_050_464_305,
            ),
            (
                "hospital/patient[treatment/medication = 'zz7t0n2']/treatment",
                14_866_918_394_097_280_727,
            ),
            (
                "hospital/patient/(parent/patient)*[treatment/medication = 'zz7t0n3']/treatment",
                18_359_238_097_949_814_326,
            ),
        ],
    );
}

#[test]
fn group_plans_of_the_org_view_queries() {
    let vocab = Vocabulary::new();
    let dtd = Dtd::parse(org::DTD, &vocab).unwrap();
    let spec = derive(&AccessPolicy::parse(dtd, org::POLICY).unwrap());
    let pinned = [
        12_958_933_306_293_756_141,
        2_174_465_512_715_483_104,
        6_295_479_206_489_752_501,
        6_018_750_648_018_843_379,
    ];
    let corpus: Vec<(&str, u64)> = org::VIEW_QUERIES
        .iter()
        .zip(pinned)
        .map(|(&(_, q), h)| (q, h))
        .collect();
    check(&vocab, Some(&spec), &corpus);
}

/// Unions, wildcards, descendant steps, nested qualifiers, boolean
/// connectives and the empty-text comparison, over the document.
const ADMIN_SHAPES: [&str; 8] = [
    "hospital/(patient | patient/parent/patient)/*/treatment",
    "//patient//medication",
    "hospital/patient[visit[treatment[medication = 'flu']]]/pname",
    "//patient[visit/treatment/medication = 'autism' and not(parent)]/visit",
    "//treatment[medication = 'flu' or test = 'mri' or not(medication)]",
    "hospital/patient[pname/text() = '']//date",
    "//patient[(parent/patient)*/visit[treatment/medication = 'flu' or . = 'x']]/*",
    "hospital/patient/(parent/patient | visit)*/treatment[not(test and medication = 'a')]",
];

/// The same operators over the S0 view's labels (a query naming a
/// hidden label plans to the empty automaton).
const GROUP_SHAPES: [&str; 8] = [
    "hospital/(patient | patient/parent/patient)/*/medication",
    "//patient//medication",
    "hospital/patient[parent[patient[treatment/medication = 'flu']]]/treatment",
    "//patient[treatment/medication = 'autism' and not(parent)]/treatment",
    "//treatment[medication = 'flu' or medication = 'fever' or not(medication)]",
    "hospital/patient[treatment/medication/text() = '']//medication",
    "//patient[(parent/patient)*/treatment[medication = 'flu' or . = 'x']]/*",
    "hospital/patient/(parent/patient | treatment)*/treatment[not(medication and medication = 'a')]",
];

#[test]
fn admin_plans_of_the_operator_shapes() {
    let vocab = Vocabulary::new();
    hospital::dtd(&vocab);
    let pinned = [
        4_785_589_775_658_282_277,
        9_292_578_889_787_713_694,
        8_817_398_517_818_216_881,
        7_077_147_103_978_048_956,
        10_346_861_718_068_185_520,
        10_435_529_456_112_010_714,
        11_033_446_448_388_321_144,
        10_377_819_838_289_147_066,
    ];
    let corpus: Vec<(&str, u64)> = ADMIN_SHAPES.iter().copied().zip(pinned).collect();
    check(&vocab, None, &corpus);
}

#[test]
fn group_plans_of_the_operator_shapes() {
    let vocab = Vocabulary::new();
    let spec = hospital_view(&vocab);
    let pinned = [
        2_335_848_022_756_034_437,
        1_663_746_959_864_461_326,
        12_378_037_573_450_005_576,
        367_953_717_257_350_493,
        2_473_235_384_806_503_949,
        12_966_535_100_925_133_751,
        13_676_638_245_490_248_262,
        17_852_972_113_105_833_495,
    ];
    let corpus: Vec<(&str, u64)> = GROUP_SHAPES.iter().copied().zip(pinned).collect();
    check(&vocab, Some(&spec), &corpus);
}

#[test]
fn plans_at_the_analysis_caps() {
    let vocab = Vocabulary::new();
    hospital::dtd(&vocab);
    let spec = hospital_view(&vocab);
    // More distinct literals than the value analysis tracks.
    let many: Vec<String> = (0..70)
        .map(|i| format!("treatment/medication = 'm{i}'"))
        .collect();
    let wide = format!("hospital/patient[{}]/treatment", many.join(" and "));
    // A top NFA whose subset construction passes the DFA state cap.
    let blowup = format!("(a | b)*/a{}", "/(a | b)".repeat(9));
    check(
        &vocab,
        None,
        &[
            (wide.as_str(), 10_362_420_083_273_827_888),
            (blowup.as_str(), 13_409_341_021_130_206_552),
        ],
    );
    check(
        &vocab,
        Some(&spec),
        &[(wide.as_str(), 16_750_889_483_175_624_281)],
    );
}
