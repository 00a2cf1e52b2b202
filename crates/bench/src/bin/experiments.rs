//! The experiment harness: regenerates every demonstration claim of the
//! paper as a table on stdout (EXPERIMENTS.md records the outputs).
//!
//! ```text
//! cargo run --release -p smoqe-bench --bin experiments            # all
//! cargo run --release -p smoqe-bench --bin experiments -- e3 e5   # subset
//! cargo run --release -p smoqe-bench --bin experiments -- quick   # small sizes
//! cargo run --release -p smoqe-bench --bin experiments -- largedoc  # ~100 MB smoke
//! cargo run --release -p smoqe-bench --bin experiments -- update_scaling  # write path, 1k..1M nodes
//! ```
//!
//! Performance numbers come from the repository's benchmark
//! (`benchmark/`, described by `BENCHMARK.json`), not from here.

use smoqe::workloads::hospital;
use smoqe_automata::compile::CompiledMfa;
use smoqe_automata::{compile, optimize::optimize};
use smoqe_bench::{
    fmt_duration, splice_unique_patients, time, time_mean, HospitalSetup, OrgSetup, Table,
};
use smoqe_hype::dom::{evaluate_mfa_plan, evaluate_mfa_with, DomOptions};
use smoqe_hype::stream::{evaluate_stream, StreamOptions};
use smoqe_hype::{evaluate_mfa, evaluate_mfa_twopass_report, ExecMode, NoopObserver};
use smoqe_rewrite::{rewrite, rewrite_direct};
use smoqe_rxpath::{evaluate as naive_evaluate, parse_path};
use smoqe_tax::TaxIndex;
use smoqe_view::{derive, materialize, AccessPolicy};
use smoqe_xml::{
    delete_subtree, generate_to_writer, insert_fragment, replace_subtree, DirtySet, Document,
    EditSpan, SplicePlace, Vocabulary,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "quick");
    let selected: Vec<&str> = args
        .iter()
        .map(String::as_str)
        .filter(|a| a.starts_with('e') || *a == "largedoc" || *a == "update_scaling")
        .collect();
    let run = |name: &str| selected.is_empty() || selected.contains(&name);

    println!("SMOQE experiment harness (quick={quick})");
    println!("=========================================\n");
    if run("e1") {
        e1();
    }
    if run("e2") {
        e2(quick);
    }
    if run("e3") {
        e3(quick);
    }
    if run("e4") {
        e4(quick);
    }
    if run("e5") {
        e5(quick);
    }
    if run("e6") {
        e6(quick);
    }
    if run("e7") {
        e7();
    }
    // Large-document smoke (`experiments -- largedoc [quick]`): parse a
    // ~100 MB synthetic document and keep peak RSS under budget.
    if selected.contains(&"largedoc") {
        largedoc(quick);
    }
    // Write-path scaling (`experiments -- update_scaling [quick]`).
    if selected.contains(&"update_scaling") {
        update_scaling(quick);
    }
}

/// What one accepted update costs as the document grows, layer by layer
/// through the public functions — the table splice (`insert_fragment` /
/// `delete_subtree` / `replace_subtree`), the TAX patch, and validation of
/// the edit's dirty set next to validation of the whole result — and as a
/// whole through `DocHandle::update`. The splice and the patch are table
/// copies (linear in the document, at memcpy speed); the dirty-set
/// validation does not depend on the document at all.
fn update_scaling(quick: bool) {
    println!("## update_scaling  insert / replace / delete at one patient, by document size\n");
    let sizes: &[usize] = if quick {
        &[1_000]
    } else {
        &[1_000, 10_000, 100_000, 1_000_000]
    };
    let visit = "<visit><treatment><test>mri</test></treatment><date>2026-01-01</date></visit>";
    let treatment = "<treatment><test>blood</test></treatment>";
    let patient = "hospital/patient[pname = 'U00']";
    let mut table = Table::new(&[
        "nodes",
        "op",
        "splice",
        "tax patch",
        "validate dirty",
        "validate whole",
        "DocHandle::update",
    ]);
    for &size in sizes {
        let iters = (2_000_000 / size).clamp(5, 200);
        let vocab = Vocabulary::new();
        let dtd = hospital::dtd(&vocab);
        let generated = hospital::generate_document(&vocab, 7, size);
        // Buffer-backed (parsed), with one patient to aim at by name.
        let doc = splice_unique_patients(&generated, &vocab, 1);
        let tax = TaxIndex::build(&doc);
        let target = |doc: &Document, path: &str| {
            let path = parse_path(path, &vocab).expect("target path parses");
            naive_evaluate(doc, &path).into_vec()[0]
        };
        let fragment = |xml: &str| Document::parse_str(xml, &vocab).expect("fragment parses");
        let (visit_doc, treatment_doc) = (fragment(visit), fragment(treatment));

        let engine = smoqe::Engine::with_defaults();
        let handle = engine.open_document("scaling");
        handle.load_dtd(hospital::DTD).unwrap();
        handle.load_document(doc.raw_source().unwrap()).unwrap();
        handle.build_tax_index().unwrap();
        let statements = [
            ("insert", format!("insert {visit} after {patient}/pname")),
            (
                "replace",
                format!("replace {patient}/visit/treatment[test = 'blood'] with {treatment}"),
            ),
            (
                "delete",
                format!("delete {patient}/visit[treatment/test = 'mri']"),
            ),
        ];
        // One cycle of the three statements restores the document, so
        // every iteration times the same three updates.
        let mut whole = [std::time::Duration::ZERO; 3];
        for _ in 0..iters {
            for (slot, (_, statement)) in whole.iter_mut().zip(&statements) {
                let (report, took) = time(|| handle.update(statement).expect("update applies"));
                assert!(report.validated_nodes <= 8, "incremental validation");
                *slot += took;
            }
        }

        // The same three edits by hand, on the state each one meets.
        let pname = target(&doc, &format!("{patient}/pname"));
        let (inserted, insert_span) =
            insert_fragment(&doc, pname, SplicePlace::After, &visit_doc).unwrap();
        let inserted_tax = tax.patched(&inserted, &insert_span);
        let blood = target(
            &inserted,
            &format!("{patient}/visit/treatment[test = 'blood']"),
        );
        let mri = target(
            &inserted,
            &format!("{patient}/visit[treatment/test = 'mri']"),
        );
        type Edit<'a> = Box<dyn Fn() -> (Document, EditSpan) + 'a>;
        let edits: [(&Document, &TaxIndex, Edit); 3] = [
            (
                &doc,
                &tax,
                Box::new(|| insert_fragment(&doc, pname, SplicePlace::After, &visit_doc).unwrap()),
            ),
            (
                &inserted,
                &inserted_tax,
                Box::new(|| replace_subtree(&inserted, blood, &treatment_doc).unwrap()),
            ),
            (
                &inserted,
                &inserted_tax,
                Box::new(|| delete_subtree(&inserted, mri).unwrap()),
            ),
        ];
        for (i, (before, base_tax, edit)) in edits.iter().enumerate() {
            let (after, span) = edit();
            let mut dirty = DirtySet::default();
            dirty.record(&span);
            table.row(vec![
                before.node_count().to_string(),
                statements[i].0.to_string(),
                fmt_duration(time_mean(iters, edit)),
                fmt_duration(time_mean(iters, || base_tax.patched(&after, &span))),
                fmt_duration(time_mean(iters, || {
                    dtd.validate_nodes(&after, dirty.nodes()).unwrap()
                })),
                fmt_duration(time_mean(iters.min(20), || dtd.validate(&after).unwrap())),
                fmt_duration(whole[i] / iters as u32),
            ]);
        }
    }
    println!("{}", table.render());
}

/// Generates a large (~100 MB, or ~10 MB with `quick`) synthetic hospital
/// document on disk, parses it into the span-arena DOM, runs one
/// selective query, and asserts peak RSS stays within a fixed multiple of
/// the document size — a CI guard against memory-footprint regressions in
/// the zero-copy document storage.
fn largedoc(quick: bool) {
    println!("## largedoc  ~100 MB parse + query under a peak-RSS budget\n");
    let target_mb: usize = if quick { 10 } else { 100 };
    let vocab = Vocabulary::new();
    let dtd = hospital::dtd(&vocab);
    // The hospital DTD serializes at roughly 14 bytes of XML per node.
    let target_nodes = target_mb * (1 << 20) / 14;
    let config = hospital::generator_config(&vocab, 99, target_nodes);
    let path = std::env::temp_dir().join("smoqe-largedoc.xml");
    {
        let file = std::fs::File::create(&path).expect("create large doc");
        generate_to_writer(&dtd, &config, std::io::BufWriter::new(file)).expect("generate");
    }
    let bytes = std::fs::metadata(&path).expect("stat large doc").len();
    let (doc, parse_d) = time(|| smoqe_xml::parse_file(&path, &vocab).expect("parse large doc"));
    std::fs::remove_file(&path).ok();
    let plan = {
        let q = parse_path("//test", &vocab).unwrap();
        CompiledMfa::compile(&optimize(&compile(&q, &vocab)))
    };
    let ((answers, _), query_d) = time(|| {
        evaluate_mfa_plan(
            &doc,
            &plan,
            &DomOptions::default(),
            ExecMode::Compiled,
            &mut NoopObserver,
        )
    });
    let mb = bytes as f64 / (1 << 20) as f64;
    println!(
        "document: {mb:.1} MB, {} nodes; parse {} ({:.1} MB/s); //test -> {} answers in {}",
        doc.node_count(),
        fmt_duration(parse_d),
        mb / parse_d.as_secs_f64(),
        answers.len(),
        fmt_duration(query_d),
    );
    println!("memory: {}", doc.memory_summary());
    match peak_rss_mb() {
        Some(peak) => {
            // Budget: buffer + span tables + transient parse copies stay
            // well under 12x the serialized size (the old string-arena
            // DOM plus a separate raw copy trended far above this).
            let budget = mb * 12.0;
            println!("peak RSS: {peak:.0} MB (budget {budget:.0} MB)");
            assert!(
                peak <= budget,
                "peak RSS {peak:.0} MB exceeds budget {budget:.0} MB"
            );
        }
        None => println!("peak RSS: unavailable on this platform (check skipped)"),
    }
}

/// Peak resident set size of this process in MB (Linux `VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// E1 (Fig. 3): policy -> derived view specification and view DTD.
fn e1() {
    println!("## E1  Fig. 3: automatic view derivation\n");
    let vocab = Vocabulary::new();
    let dtd = hospital::dtd(&vocab);
    let policy = AccessPolicy::parse(dtd.clone(), hospital::POLICY).unwrap();
    println!("--- access control policy S0 (Fig. 3(b)) ---");
    println!("{}", policy.to_policy_string());
    let spec = derive(&policy);
    println!("--- derived view specification sigma0 + view DTD (Fig. 3(c)/(d)) ---");
    println!("{}", spec.to_spec_string());
    println!("view DTD recursive: {}\n", spec.view_dtd().is_recursive());
}

/// E2 (Fig. 4 / §3 Rewriter): MFA size is linear in |Q|; the direct
/// syntactic rewriting explodes.
fn e2(quick: bool) {
    println!("## E2  Rewriting: MFA (linear) vs direct syntactic (exponential)\n");
    let setup = HospitalSetup::sample();
    let max_n = if quick { 4 } else { 6 };
    let mut table = Table::new(&[
        "closure depth n",
        "|Q|",
        "MFA size",
        "direct size",
        "direct/MFA",
        "rewrite time",
    ]);
    for n in 1..=max_n {
        let q = format!(
            "hospital/patient{}/treatment",
            "/(parent/patient)*[treatment]".repeat(n)
        );
        let path = parse_path(&q, &setup.vocab).unwrap();
        let (mfa, t) = time(|| rewrite(&path, &setup.spec));
        let mfa_size = mfa.stats().total();
        let direct_size = rewrite_direct(&path, &setup.spec)
            .map(|p| p.size())
            .unwrap_or(0);
        table.row(vec![
            n.to_string(),
            path.size().to_string(),
            mfa_size.to_string(),
            direct_size.to_string(),
            format!("{:.1}x", direct_size as f64 / mfa_size as f64),
            fmt_duration(t),
        ]);
    }
    println!("{}", table.render());
    // Fig. 4: the MFA of the paper's Q0.
    let q0 = parse_path(hospital::Q0, &setup.vocab).unwrap();
    let m0 = compile(&q0, &setup.vocab);
    println!("MFA M0 of the paper's Q0: {}", m0.stats());
    println!("after optimizer:          {}\n", optimize(&m0).stats());
}

/// E3 (§3 Evaluator): HyPE single pass vs two-pass vs naive navigation.
fn e3(quick: bool) {
    println!("## E3  Evaluation: HyPE vs two-pass vs naive ('Xalan-like')\n");
    let sizes: &[usize] = if quick {
        &[1_000, 10_000]
    } else {
        &[1_000, 10_000, 100_000]
    };
    let mut table = Table::new(&[
        "nodes",
        "query",
        "HyPE",
        "two-pass",
        "naive",
        "|Cans|",
        "Cans/visited",
    ]);
    for &size in sizes {
        let setup = HospitalSetup::generated(42, size);
        let iters = if size <= 10_000 { 20 } else { 5 };
        for (name, q) in hospital::DOC_QUERIES {
            let path = parse_path(q, &setup.vocab).unwrap();
            let mfa = optimize(&compile(&path, &setup.vocab));
            let hype_t = time_mean(iters, || evaluate_mfa(&setup.doc, &mfa));
            let (answers, stats) = evaluate_mfa(&setup.doc, &mfa);
            let two_t = time_mean(iters, || evaluate_mfa_twopass_report(&setup.doc, &mfa));
            let naive_t = time_mean(iters.min(5), || naive_evaluate(&setup.doc, &path));
            // Sanity: all engines agree.
            let ((two_answers, _), _) = evaluate_mfa_twopass_report(&setup.doc, &mfa);
            assert_eq!(answers, two_answers, "engines disagree on {name}");
            table.row(vec![
                size.to_string(),
                name.to_string(),
                fmt_duration(hype_t),
                fmt_duration(two_t),
                fmt_duration(naive_t),
                stats.cans_size.to_string(),
                format!("{:.3}", stats.cans_ratio()),
            ]);
        }
    }
    println!("{}", table.render());
}

/// E4 (§2 XML documents): DOM mode vs StAX mode.
fn e4(quick: bool) {
    println!("## E4  DOM vs StAX (one sequential scan, bounded memory)\n");
    let sizes: &[usize] = if quick {
        &[10_000]
    } else {
        &[10_000, 100_000, 300_000]
    };
    let mut table = Table::new(&[
        "nodes",
        "query",
        "DOM eval",
        "stream eval (incl. parse)",
        "xml bytes",
        "peak buffered",
    ]);
    for &size in sizes {
        let vocab = Vocabulary::new();
        let dtd = hospital::dtd(&vocab);
        let config = hospital::generator_config(&vocab, 7, size);
        let mut xml_bytes: Vec<u8> = Vec::new();
        generate_to_writer(&dtd, &config, &mut xml_bytes).unwrap();
        let xml = String::from_utf8(xml_bytes).unwrap();
        let doc = Document::parse_str(&xml, &vocab).unwrap();
        for (name, q) in &hospital::DOC_QUERIES[..3] {
            let path = parse_path(q, &vocab).unwrap();
            let mfa = optimize(&compile(&path, &vocab));
            let iters = if size <= 10_000 { 10 } else { 3 };
            let dom_t = time_mean(iters, || evaluate_mfa(&doc, &mfa));
            let stream_t = time_mean(iters, || {
                evaluate_stream(xml.as_bytes(), &mfa, &vocab, StreamOptions::default()).unwrap()
            });
            let outcome = evaluate_stream(
                xml.as_bytes(),
                &mfa,
                &vocab,
                StreamOptions { want_xml: true },
            )
            .unwrap();
            // Stream answers match DOM answers.
            let (dom_answers, _) = evaluate_mfa(&doc, &mfa);
            assert_eq!(
                outcome.answers,
                dom_answers.iter().map(|n| n.0).collect::<Vec<_>>()
            );
            table.row(vec![
                size.to_string(),
                name.to_string(),
                fmt_duration(dom_t),
                fmt_duration(stream_t),
                xml.len().to_string(),
                outcome.peak_buffered_bytes.to_string(),
            ]);
        }
    }
    println!("{}", table.render());
}

/// E5 (§3 Indexer): TAX on vs off; index build/persist costs.
fn e5(quick: bool) {
    println!("## E5  TAX index: pruning effect and build/persist costs\n");
    let size = if quick { 20_000 } else { 200_000 };
    let setup = HospitalSetup::generated(11, size);
    let (tax, build_t) = time(|| TaxIndex::build(&setup.doc));
    println!(
        "index build over {} nodes: {} ({} distinct sets, ~{} bytes in memory)",
        setup.doc.node_count(),
        fmt_duration(build_t),
        tax.distinct_sets(),
        tax.memory_bytes()
    );
    let mut buf = Vec::new();
    let (_, save_t) = time(|| tax.save(&mut buf, &setup.vocab).unwrap());
    let (loaded, load_t) = time(|| TaxIndex::load(&mut &buf[..], &setup.vocab).unwrap());
    println!(
        "persist: {} bytes on disk (save {}, load {})\n",
        buf.len(),
        fmt_duration(save_t),
        fmt_duration(load_t)
    );
    drop(loaded);

    let mut table = Table::new(&[
        "query",
        "no TAX",
        "with TAX",
        "speedup",
        "visited (no TAX)",
        "visited (TAX)",
        "TAX-pruned subtrees",
    ]);
    // Selective queries benefit; exhaustive ones are ~neutral.
    let queries = [
        ("descendant //test", "//test"),
        ("selective //parent/patient/pname", "//parent/patient/pname"),
        ("negation", "//treatment[not(test)]/medication"),
        ("exhaustive //patient", "//patient"),
    ];
    for (name, q) in queries {
        let path = parse_path(q, &setup.vocab).unwrap();
        let mfa = optimize(&compile(&path, &setup.vocab));
        let iters = if quick { 10 } else { 5 };
        let plain_opts = DomOptions::default();
        let tax_opts = DomOptions { tax: Some(&tax) };
        let t_plain = time_mean(iters, || {
            evaluate_mfa_with(&setup.doc, &mfa, &plain_opts, &mut NoopObserver)
        });
        let t_tax = time_mean(iters, || {
            evaluate_mfa_with(&setup.doc, &mfa, &tax_opts, &mut NoopObserver)
        });
        let (a_plain, s_plain) =
            evaluate_mfa_with(&setup.doc, &mfa, &plain_opts, &mut NoopObserver);
        let (a_tax, s_tax) = evaluate_mfa_with(&setup.doc, &mfa, &tax_opts, &mut NoopObserver);
        assert_eq!(a_plain, a_tax, "TAX changed answers for {name}");
        table.row(vec![
            name.to_string(),
            fmt_duration(t_plain),
            fmt_duration(t_tax),
            format!("{:.2}x", t_plain.as_secs_f64() / t_tax.as_secs_f64()),
            s_plain.nodes_visited.to_string(),
            s_tax.nodes_visited.to_string(),
            s_tax.subtrees_pruned_tax.to_string(),
        ]);
    }
    println!("{}", table.render());
}

/// E6 (§1/§2): virtual views (rewrite + HyPE) vs materialize-then-query.
fn e6(quick: bool) {
    println!("## E6  Virtual views vs materialization\n");
    let sizes: &[usize] = if quick { &[5_000] } else { &[5_000, 50_000] };
    let mut table = Table::new(&[
        "nodes",
        "view query",
        "virtual (rewrite+HyPE)",
        "virtual+TAX",
        "materialize+eval",
        "|V(T)| nodes",
        "answers",
    ]);
    for &size in sizes {
        let setup = HospitalSetup::generated(23, size);
        let tax = TaxIndex::build(&setup.doc);
        let iters = if size <= 5_000 { 10 } else { 3 };
        for (name, q) in hospital::VIEW_QUERIES {
            let path = parse_path(q, &setup.vocab).unwrap();
            let mfa = optimize(&rewrite(&path, &setup.spec));
            let t_virtual = time_mean(iters, || evaluate_mfa(&setup.doc, &mfa));
            let tax_opts = DomOptions { tax: Some(&tax) };
            let t_tax = time_mean(iters, || {
                evaluate_mfa_with(&setup.doc, &mfa, &tax_opts, &mut NoopObserver)
            });
            let (tax_answers, _) =
                evaluate_mfa_with(&setup.doc, &mfa, &tax_opts, &mut NoopObserver);
            let t_mat = time_mean(iters.min(3), || {
                let view = materialize(&setup.spec, &setup.doc).unwrap();
                naive_evaluate(&view.doc, &path)
            });
            // Correctness: Q'(T) == Q(V(T)).
            let (virtual_answers, _) = evaluate_mfa(&setup.doc, &mfa);
            let view = materialize(&setup.spec, &setup.doc).unwrap();
            let expected = view.origins_of(naive_evaluate(&view.doc, &path).iter());
            assert_eq!(
                virtual_answers.as_slice(),
                expected.as_slice(),
                "equivalence violated for {name}"
            );
            assert_eq!(
                tax_answers, virtual_answers,
                "TAX changed answers for {name}"
            );
            table.row(vec![
                size.to_string(),
                name.to_string(),
                fmt_duration(t_virtual),
                fmt_duration(t_tax),
                fmt_duration(t_mat),
                view.doc.node_count().to_string(),
                virtual_answers.len().to_string(),
            ]);
        }
    }
    println!("{}", table.render());
    // The org workload as a control.
    let org = OrgSetup::generated(5, if quick { 5_000 } else { 20_000 });
    let mut t2 = Table::new(&["org view query", "virtual", "materialized", "answers"]);
    for (name, q) in smoqe::workloads::org::VIEW_QUERIES {
        let path = parse_path(q, &org.vocab).unwrap();
        let mfa = optimize(&rewrite(&path, &org.spec));
        let tv = time_mean(5, || evaluate_mfa(&org.doc, &mfa));
        let tm = time_mean(3, || {
            let view = materialize(&org.spec, &org.doc).unwrap();
            naive_evaluate(&view.doc, &path)
        });
        let (ans, _) = evaluate_mfa(&org.doc, &mfa);
        t2.row(vec![
            name.to_string(),
            fmt_duration(tv),
            fmt_duration(tm),
            ans.len().to_string(),
        ]);
    }
    println!("{}", t2.render());
}

/// E7 (Figs. 4(b), 5, 6): the visual artifacts, in text form.
fn e7() {
    println!("## E7  Visualizations (iSMOQE substitute)\n");
    let setup = HospitalSetup::sample();
    let q0 = parse_path(hospital::Q0, &setup.vocab).unwrap();
    let m0 = compile(&q0, &setup.vocab);
    println!("--- Fig. 4: MFA M0 for Q0 ---");
    println!("{}", smoqe_viz::mfa_listing(&m0));
    println!("--- Fig. 5: HyPE evaluation of M0 on the sample document ---");
    let mut trace = smoqe_viz::TraceCollector::new();
    let tax = TaxIndex::build(&setup.doc);
    let opts = DomOptions { tax: Some(&tax) };
    evaluate_mfa_with(&setup.doc, &m0, &opts, &mut trace);
    println!("{}", smoqe_viz::annotated_tree(&setup.doc, &trace));
    println!("--- Fig. 6: TAX index on the sample document ---");
    println!("{}", tax.summary(&setup.vocab));
}
