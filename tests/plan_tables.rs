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
use smoqe_automata::compile::CompiledNfa;
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
        dfa.start(),
        dfa.state_count()
    )
    .unwrap();
    for d in 0..dfa.state_count() as u32 {
        let next: Vec<String> = (0..width)
            .map(|col| match dfa.step(d, col) {
                smoqe_automata::compile::DEAD => "-".to_string(),
                n => n.to_string(),
            })
            .collect();
        writeln!(
            out,
            "    d{d} accept {} members {} next [{}]",
            dfa.accept(d),
            states(dfa.members(d)),
            next.join(" ")
        )
        .unwrap();
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
    dump_dfa(out, "stripped", compiled.stripped_dfa(), width);
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
            let dfa = top
                .dfa()
                .or(top.stripped_dfa())
                .expect("step values need a DFA");
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
        8_652_668_701_822_959_110,
        14_208_977_969_540_691_427,
        6_430_833_464_753_458_687,
        15_306_755_265_050_494_444,
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
        15_014_743_960_316_719_571,
        7_976_416_108_810_434_172,
        10_052_823_254_849_743_762,
        1_643_220_856_916_805_802,
        2_111_731_167_421_693_467,
        6_579_670_565_646_486_445,
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
                3_828_865_780_096_193_695,
            ),
            (
                "hospital/patient[treatment/medication = 'zz7t0n2']/treatment",
                11_113_614_765_657_244_407,
            ),
            (
                "hospital/patient/(parent/patient)*[treatment/medication = 'zz7t0n3']/treatment",
                1_256_145_029_364_652_141,
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
        7_937_858_598_431_358_376,
        13_598_711_750_970_567_783,
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
        3_031_782_185_062_638_835,
        16_732_983_658_000_303_918,
        16_835_281_387_786_729_312,
        1_049_276_522_889_504_755,
        11_132_571_590_587_181_634,
        4_551_106_567_605_612_874,
    ];
    let corpus: Vec<(&str, u64)> = ADMIN_SHAPES.iter().copied().zip(pinned).collect();
    check(&vocab, None, &corpus);
}

#[test]
fn group_plans_of_the_operator_shapes() {
    let vocab = Vocabulary::new();
    let spec = hospital_view(&vocab);
    let pinned = [
        7_624_336_097_449_815_264,
        14_581_286_764_597_078_089,
        18_293_895_059_421_760_529,
        14_537_401_738_004_751_759,
        3_925_517_414_458_938_888,
        17_016_247_894_641_692_330,
        6_852_014_970_821_728_629,
        2_590_437_842_335_848_568,
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
            (wide.as_str(), 17_959_474_442_289_084_833),
            (blowup.as_str(), 13_409_341_021_130_206_552),
        ],
    );
    check(
        &vocab,
        Some(&spec),
        &[(wide.as_str(), 10_578_713_015_503_441_279)],
    );
}
