//! Engine-mode integration: file-backed streaming, DOM/stream agreement
//! at scale, the hand-authored view-spec mode, and configuration toggles.

use smoqe::workloads::{hospital, org};
use smoqe::{Engine, EngineConfig, User};
use smoqe_xml::{generate_to_writer, Vocabulary};

fn temp_dir() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("smoqe-int-stream");
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn file_backed_streaming_matches_dom() {
    // Generate a mid-size document straight to disk.
    let vocab = Vocabulary::new();
    let dtd = hospital::dtd(&vocab);
    let config = hospital::generator_config(&vocab, 99, 20_000);
    let path = temp_dir().join("stream-20k.xml");
    {
        let f = std::fs::File::create(&path).unwrap();
        generate_to_writer(&dtd, &config, std::io::BufWriter::new(f)).unwrap();
    }

    let dom = Engine::new(EngineConfig::default());
    dom.load_dtd(hospital::DTD).unwrap();
    dom.load_document_file(&path).unwrap();
    dom.register_policy("g", hospital::POLICY).unwrap();

    let stream = Engine::new(EngineConfig::streaming());
    stream.load_dtd(hospital::DTD).unwrap();
    stream.load_document_file(&path).unwrap();
    stream.register_policy("g", hospital::POLICY).unwrap();

    for user in [User::Admin, User::Group("g".into())] {
        let qs: &[&str] = match user {
            User::Admin => &["//medication", "hospital/patient/pname", hospital::Q0],
            User::Group(_) => &["//medication", "hospital/patient/treatment"],
        };
        for q in qs {
            let a = dom.session(user.clone()).query(q).unwrap();
            let b = stream.session(user.clone()).query(q).unwrap();
            assert_eq!(a.nodes, b.nodes, "mode mismatch for {q} as {user:?}");
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn streaming_engine_from_string_source() {
    let e = Engine::new(EngineConfig::streaming());
    e.load_dtd(org::DTD).unwrap();
    e.load_document(org::SAMPLE_DOCUMENT).unwrap();
    e.register_policy("staff", org::POLICY).unwrap();
    let s = e.session(User::Group("staff".into()));
    let reviews = s.query("//review").unwrap();
    // Only public reviews are visible (2 of 3 in the sample).
    assert_eq!(reviews.len(), 2);
    for xml in reviews.xml.unwrap() {
        assert!(xml.contains("public"));
        assert!(!xml.contains("private"));
    }
}

#[test]
fn split_character_data_agrees_between_stream_and_dom() {
    // Character data split across entity references and CDATA boundaries
    // arrives as multiple parser Text events; the DOM builder merges the
    // run into ONE text node. The stream machine must coalesce the same
    // way — both for `text()='c'` predicates and for the document-order
    // node ids of everything that follows.
    let doc = "<lib>\
        <book><title>a&amp;b</title><year>2006</year></book>\
        <book><title>a<![CDATA[&]]>b</title><year>2007</year></book>\
        <book><title><![CDATA[one]]><![CDATA[two]]></title><year>2008</year></book>\
        <book><title>onetwo</title><year>2009</year></book>\
      </lib>";
    let dom = Engine::new(EngineConfig::default());
    dom.load_document(doc).unwrap();
    let stream = Engine::new(EngineConfig::streaming());
    stream.load_document(doc).unwrap();
    for q in [
        "lib/book[title = 'a&b']/year",    // entity- and CDATA-split text
        "lib/book[title = 'onetwo']/year", // adjacent CDATA sections
        "//year",                          // ids after split-text runs
        "lib/book[not(title = 'a&b')]/year",
    ] {
        let a = dom.session(User::Admin).query(q).unwrap();
        let b = stream.session(User::Admin).query(q).unwrap();
        assert_eq!(a.nodes, b.nodes, "mode mismatch for `{q}`");
        assert!(!a.is_empty(), "query `{q}` should match something");
    }
    // The split runs really do compare as one value.
    let amp = dom
        .session(User::Admin)
        .query("lib/book[title = 'a&b']")
        .unwrap();
    assert_eq!(amp.len(), 2, "both split spellings of a&b must match");
    let cat = stream
        .session(User::Admin)
        .query("lib/book[title = 'onetwo']")
        .unwrap();
    assert_eq!(cat.len(), 2, "CDATA-split and plain 'onetwo' must match");
}

#[test]
fn hand_authored_spec_and_derived_policy_can_coexist() {
    let e = Engine::with_defaults();
    e.load_dtd(hospital::DTD).unwrap();
    e.load_document(hospital::SAMPLE_DOCUMENT).unwrap();
    e.register_policy("derived", hospital::POLICY).unwrap();
    e.register_view_spec(
        "flat",
        "<!ELEMENT hospital (pname*)>\n<!ELEMENT pname (#PCDATA)>\n\
         sigma(hospital, pname) = patient/pname\n",
    )
    .unwrap();
    // The two groups see different shapes of the same data.
    let derived = e.session(User::Group("derived".into()));
    let flat = e.session(User::Group("flat".into()));
    assert!(derived.query("//pname").unwrap().is_empty());
    assert_eq!(flat.query("hospital/pname").unwrap().len(), 3); // top-level names
                                                                // The flat view exposes names that the derived view hides - distinct
                                                                // policies genuinely isolate groups.
    let xmls = flat.query_xml("hospital/pname").unwrap();
    assert!(xmls.iter().any(|x| x.contains("Ann")));
}

#[test]
fn config_toggles_do_not_change_answers() {
    // (configuration, build the TAX index?)
    let configs = [
        (EngineConfig::default(), true),
        (EngineConfig::default(), false),
        (
            EngineConfig {
                eval_threads: 4,
                plan_cache_capacity: 0,
                ..EngineConfig::default()
            },
            true,
        ),
        (EngineConfig::streaming(), false),
    ];
    let mut reference: Option<Vec<Vec<u32>>> = None;
    for (config, with_tax) in configs {
        let e = Engine::new(config);
        e.load_dtd(hospital::DTD).unwrap();
        e.load_document(hospital::SAMPLE_DOCUMENT).unwrap();
        e.register_policy("g", hospital::POLICY).unwrap();
        if with_tax {
            e.build_tax_index().unwrap();
        }
        let s = e.session(User::Group("g".into()));
        let results: Vec<Vec<u32>> = hospital::VIEW_QUERIES
            .iter()
            .map(|(_, q)| s.query(q).unwrap().nodes.iter().map(|n| n.0).collect())
            .collect();
        match &reference {
            None => reference = Some(results),
            Some(r) => assert_eq!(
                &results, r,
                "config {config:?} (tax: {with_tax}) changed answers"
            ),
        }
    }
}

#[test]
fn dtd_validation_rejects_bad_documents_through_engine() {
    let e = Engine::with_defaults();
    e.load_dtd(hospital::DTD).unwrap();
    // Wrong child order: visit before pname.
    let err = e
        .load_document(
            "<hospital><patient><visit><treatment><test>t</test></treatment><date>d</date></visit>\
             <pname>A</pname></patient></hospital>",
        )
        .unwrap_err();
    assert!(err.to_string().contains("content model"), "{err}");
    // Without a DTD, the same document is accepted.
    let e2 = Engine::new(EngineConfig::default());
    e2.load_document("<anything><goes/></anything>").unwrap();
}

#[test]
fn large_generated_document_through_engine_with_all_features() {
    let e = Engine::with_defaults();
    e.load_dtd(hospital::DTD).unwrap();
    let doc = hospital::generate_document(e.vocabulary(), 5, 30_000);
    e.load_document_tree(doc).unwrap();
    e.build_tax_index().unwrap();
    e.register_policy("g", hospital::POLICY).unwrap();
    let s = e.session(User::Group("g".into()));
    let a = s
        .query("hospital/patient/(parent/patient)*/treatment/medication")
        .unwrap();
    // TAX pruning + jump picks on; sanity cross-check against an engine
    // with no index (scan only) and no plan cache.
    let plain = Engine::new(EngineConfig {
        plan_cache_capacity: 0,
        ..EngineConfig::default()
    });
    plain.load_dtd(hospital::DTD).unwrap();
    let doc2 = hospital::generate_document(plain.vocabulary(), 5, 30_000);
    plain.load_document_tree(doc2).unwrap();
    plain.register_policy("g", hospital::POLICY).unwrap();
    let b = plain
        .session(User::Group("g".into()))
        .query("hospital/patient/(parent/patient)*/treatment/medication")
        .unwrap();
    assert_eq!(a.nodes, b.nodes);
    assert!(!a.is_empty());
}
