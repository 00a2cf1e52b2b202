//! The durability subsystem end to end: WAL logging, checkpoints, and
//! crash recovery through [`Engine::recover`].
//!
//! The heart of the file is the torn-log sweep: a populated WAL is cut at
//! **every byte offset** and recovery must come back with exactly the
//! state of some prefix of the logged operations (monotonically growing
//! with the cut), never a torn document and never a panic. A proptest
//! flips random bits the same way: recovery either succeeds on a prefix
//! or refuses with a typed corruption error.

use proptest::prelude::*;
use smoqe::workloads::hospital;
use smoqe::{DurError, Engine, EngineConfig, EngineError, Failpoint, User};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A unique scratch directory removed on drop (the workspace has no
/// `tempfile` dependency; std is enough).
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let path = std::env::temp_dir().join(format!(
            "smoqe-durability-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).unwrap();
        TempDir(path)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn recover(dir: &Path) -> Arc<Engine> {
    Engine::recover(EngineConfig::default(), dir).unwrap()
}

/// An admin insert with a unique marker name, so every accepted update
/// changes the serialized document distinguishably.
fn marker_insert(i: usize) -> String {
    format!(
        "insert <patient><pname>M{i}</pname><visit><treatment><medication>autism\
         </medication></treatment><date>d</date></visit></patient> into hospital"
    )
}

#[test]
fn a_recovered_engine_is_indistinguishable_from_the_one_that_crashed() {
    let dir = TempDir::new("roundtrip");
    let engine = recover(dir.path());
    assert_eq!(
        engine.recovery_epoch(),
        0,
        "fresh directory starts at epoch 0"
    );

    engine.load_dtd(hospital::DTD).unwrap();
    engine.load_document(hospital::SAMPLE_DOCUMENT).unwrap();
    engine
        .register_policy(hospital::GROUP, hospital::POLICY)
        .unwrap();
    engine.build_tax_index().unwrap();
    for i in 0..4 {
        engine.update(&marker_insert(i)).unwrap();
    }
    let generation = engine
        .document_handle(smoqe::DEFAULT_DOCUMENT)
        .unwrap()
        .generation();
    let admin_before: Vec<_> = hospital::DOC_QUERIES
        .iter()
        .map(|(_, q)| engine.session(User::Admin).query(q).unwrap().nodes)
        .collect();
    let view_before: Vec<_> = hospital::VIEW_QUERIES
        .iter()
        .map(|(_, q)| {
            engine
                .session(User::Group(hospital::GROUP.into()))
                .query(q)
                .unwrap()
                .nodes
        })
        .collect();
    drop(engine); // an abrupt exit: no checkpoint, no shutdown hook

    let recovered = recover(dir.path());
    assert_eq!(
        recovered.recovery_epoch(),
        1,
        "recovering existing state advances the epoch"
    );
    assert_eq!(
        recovered
            .document_handle(smoqe::DEFAULT_DOCUMENT)
            .unwrap()
            .generation(),
        generation,
        "generation counters must survive so cached plans stay correctly keyed"
    );
    assert!(recovered.tax_index().is_some(), "the TAX index is rebuilt");
    for ((_, q), nodes) in hospital::DOC_QUERIES.iter().zip(&admin_before) {
        assert_eq!(
            &recovered.session(User::Admin).query(q).unwrap().nodes,
            nodes,
            "admin `{q}` diverged after recovery"
        );
    }
    for ((_, q), nodes) in hospital::VIEW_QUERIES.iter().zip(&view_before) {
        assert_eq!(
            &recovered
                .session(User::Group(hospital::GROUP.into()))
                .query(q)
                .unwrap()
                .nodes,
            nodes,
            "view `{q}` diverged after recovery"
        );
    }

    // A third boot advances the epoch again.
    drop(recovered);
    assert_eq!(recover(dir.path()).recovery_epoch(), 2);
}

#[test]
fn checkpoint_empties_the_wal_and_recovery_replays_only_the_tail() {
    let dir = TempDir::new("checkpoint");
    let wal = dir.path().join("wal.log");
    let engine = recover(dir.path());
    engine.load_dtd(hospital::DTD).unwrap();
    engine.load_document(hospital::SAMPLE_DOCUMENT).unwrap();
    engine
        .register_policy(hospital::GROUP, hospital::POLICY)
        .unwrap();
    engine.build_tax_index().unwrap();
    engine.update(&marker_insert(0)).unwrap();
    assert!(std::fs::metadata(&wal).unwrap().len() > 0);

    let covered = engine
        .checkpoint()
        .unwrap()
        .expect("durable engines checkpoint");
    assert!(covered > 0);
    assert_eq!(
        std::fs::metadata(&wal).unwrap().len(),
        0,
        "a quiet checkpoint truncates the log"
    );

    // Post-checkpoint writes land in the (now short) WAL tail.
    engine.update(&marker_insert(1)).unwrap();
    let expected = engine.document().unwrap().to_xml();
    drop(engine);

    let recovered = recover(dir.path());
    assert_eq!(
        recovered.document().unwrap().to_xml(),
        expected,
        "checkpointed state plus the replayed tail must equal the pre-crash state"
    );
    assert!(expected.contains("M0") && expected.contains("M1"));
}

#[test]
fn dropped_documents_are_not_resurrected_by_recovery() {
    let dir = TempDir::new("drop");
    let engine = recover(dir.path());
    for name in ["keep", "gone"] {
        let doc = engine.open_document(name);
        hospital::install_sample(&doc).unwrap();
    }
    // Checkpoint first: the drop must also erase the document from the
    // *persisted* artifacts, not just from memory.
    engine.checkpoint().unwrap();
    assert!(engine.drop_document("gone"));
    drop(engine);

    let recovered = recover(dir.path());
    let names = recovered.document_names();
    assert!(names.iter().any(|n| n == "keep"));
    assert!(
        !names.iter().any(|n| n == "gone"),
        "a dropped document came back from the dead: {names:?}"
    );
    assert!(recovered
        .document_handle("keep")
        .unwrap()
        .document()
        .is_ok());
}

#[test]
fn group_updates_replay_through_their_security_view_not_as_admin() {
    let dir = TempDir::new("group");
    let engine = recover(dir.path());
    engine.load_dtd(hospital::DTD).unwrap();
    engine.load_document(hospital::SAMPLE_DOCUMENT).unwrap();
    engine
        .register_policy(hospital::GROUP, hospital::POLICY)
        .unwrap();
    // The researchers' view hides some medications; this statement, run
    // as admin, would replace *every* medication. The replay must keep
    // the group's restricted target set.
    let session = engine.session(User::Group(hospital::GROUP.into()));
    let report = session
        .update(
            "replace hospital/patient/treatment/medication with <medication>autism</medication>",
        )
        .unwrap();
    assert!(report.applied >= 1);
    let expected = engine.document().unwrap().to_xml();
    assert!(
        expected.contains("flu") || expected.contains("headache"),
        "the view must have hidden at least one medication from the update"
    );
    drop(engine);

    let recovered = recover(dir.path());
    assert_eq!(
        recovered.document().unwrap().to_xml(),
        expected,
        "replaying the group update as a different principal changes its targets"
    );
}

/// Asserts that two (document, TAX index) pairs describe the same tree
/// with the same source extents and the same index contents. The engines
/// intern names in different orders, so labels compare by name.
fn assert_same_state(
    (doc_a, tax_a): (&smoqe_xml::Document, &smoqe_tax::TaxIndex),
    (doc_b, tax_b): (&smoqe_xml::Document, &smoqe_tax::TaxIndex),
) {
    assert_eq!(doc_a.raw_source(), doc_b.raw_source(), "source bytes");
    assert_eq!(doc_a.node_count(), doc_b.node_count());
    let (labels_a, labels_b) = (tax_a.label_index().unwrap(), tax_b.label_index().unwrap());
    let (values_a, values_b) = (tax_a.value_index().unwrap(), tax_b.value_index().unwrap());
    let names = |doc: &smoqe_xml::Document, tax: &smoqe_tax::TaxIndex, n| {
        let mut names: Vec<String> = tax
            .descendant_labels(n)
            .iter()
            .map(|l| doc.label_name(l).to_string())
            .collect();
        names.sort();
        names
    };
    for n in doc_a.all_nodes() {
        assert_eq!(doc_a.name(n), doc_b.name(n), "name of {n:?}");
        assert_eq!(doc_a.text(n), doc_b.text(n), "text of {n:?}");
        assert_eq!(doc_a.parent(n), doc_b.parent(n), "parent of {n:?}");
        assert_eq!(doc_a.first_child(n), doc_b.first_child(n), "child of {n:?}");
        assert_eq!(
            doc_a.next_sibling(n),
            doc_b.next_sibling(n),
            "sibling of {n:?}"
        );
        assert_eq!(
            doc_a.node_extent(n),
            doc_b.node_extent(n),
            "extent of {n:?}"
        );
        assert_eq!(
            doc_a.attributes(n).collect::<Vec<_>>(),
            doc_b.attributes(n).collect::<Vec<_>>(),
            "attributes of {n:?}"
        );
        assert_eq!(
            names(doc_a, tax_a, n),
            names(doc_b, tax_b, n),
            "descendant types of {n:?}"
        );
        assert_eq!(labels_a.subtree_end(n), labels_b.subtree_end(n));
        assert_eq!(labels_a.level(n), labels_b.level(n));
        if let (Some(a), Some(b)) = (doc_a.label(n), doc_b.label(n)) {
            assert_eq!(labels_a.occurrences(a), labels_b.occurrences(b));
            let text = doc_a.direct_text(n);
            assert_eq!(
                values_a.occurrences(a, &text),
                values_b.occurrences(b, &text),
                "postings of {n:?} ({text:?})"
            );
        }
    }
}

/// Satellite (durability stays green and gets faster): recovery replays
/// the WAL tail through the same splice + dirty-set path as live writes.
/// After a checkpoint and 60 mixed edits — inserts, replaces, deletes,
/// multi-target group writes — the recovered engine must equal the one
/// that never crashed node for node, source extents and all three patched
/// indexes included; and so must an engine recovered *again* from the
/// checkpoint that recovery wrote.
#[test]
fn recovery_of_sixty_mixed_edits_equals_the_engine_that_never_crashed() {
    let config = EngineConfig {
        checkpoint_every: 0,
        ..EngineConfig::default()
    };
    let dir = TempDir::new("mixed-replay");
    let engine = Engine::recover(config, dir.path()).unwrap();
    let xml = hospital::generate_document(engine.vocabulary(), 42, 3_000).to_xml();
    engine.load_dtd(hospital::DTD).unwrap();
    engine.load_document(&xml).unwrap();
    engine
        .register_policy(hospital::GROUP, hospital::POLICY)
        .unwrap();
    engine.build_tax_index().unwrap();
    engine.checkpoint().unwrap();

    let group = engine.session(User::Group(hospital::GROUP.into()));
    let mut accepted = 0;
    for i in 0..16 {
        let patient = format!("hospital/patient[pname = 'M{i}']");
        engine.update(&marker_insert(i)).unwrap();
        engine
            .update(&format!(
                "insert <visit><treatment><test>mri</test></treatment><date>d{i}</date></visit> \
                 after {patient}/pname"
            ))
            .unwrap();
        engine
            .update(&format!(
                "replace {patient}/visit/treatment[test = 'mri'] with \
                 <treatment><medication>headache</medication></treatment>"
            ))
            .unwrap();
        accepted += 3;
        if i % 2 == 1 {
            engine
                .update(&format!("delete hospital/patient[pname = 'M{}']", i - 1))
                .unwrap();
            accepted += 1;
        }
        if i % 3 == 0 {
            // Every treatment the view shows, in one statement.
            let report = group
                .update(
                    "replace hospital/patient/treatment[medication = 'autism'] with \
                     <treatment><medication>autism</medication></treatment>",
                )
                .unwrap();
            assert!(report.applied > 1, "a multi-target group write");
            accepted += 1;
        }
    }
    assert!(accepted >= 60, "{accepted} transactions in the tail");
    let live = (engine.document().unwrap(), engine.tax_index().unwrap());
    drop(engine); // abrupt: the tail is only in the WAL

    for boot in 1..=2 {
        let recovered = Engine::recover(config, dir.path()).unwrap();
        let state = (
            recovered.document().unwrap(),
            recovered.tax_index().unwrap(),
        );
        assert_same_state((&live.0, &live.1), (&state.0, &state.1));
        // And it keeps validating incrementally: the replay's first
        // update paid the one whole-document pass and marked the result.
        let report = recovered.update(&marker_insert(100 + boot)).unwrap();
        assert!(report.validated_nodes <= 8, "{}", report.validated_nodes);
        recovered
            .update(&format!(
                "delete hospital/patient[pname = 'M{}']",
                100 + boot
            ))
            .unwrap();
    }
}

/// Satellite: a transaction the schema check rejects — here on its
/// *final* state, after statements that individually applied — leaves
/// nothing behind: same snapshot, same generation, the cached plans still
/// hit, and not one byte in the WAL.
#[test]
fn a_rejected_transaction_leaves_snapshot_generation_plans_and_wal_untouched() {
    let dir = TempDir::new("rejected");
    let wal = dir.path().join("wal.log");
    let engine = recover(dir.path());
    engine.load_dtd(hospital::DTD).unwrap();
    engine.load_document(hospital::SAMPLE_DOCUMENT).unwrap();
    engine.build_tax_index().unwrap();
    let doc = engine.document_handle(smoqe::DEFAULT_DOCUMENT).unwrap();
    let admin = engine.session(User::Admin);
    admin.query("//medication").unwrap();

    let snapshot = engine.document().unwrap();
    let tax = engine.tax_index().unwrap();
    let generation = doc.generation();
    let wal_len = std::fs::metadata(&wal).unwrap().len();
    let invalidations = engine.cache_metrics().invalidations;

    let err = doc
        .update_batch(&[
            // Fine on its own ...
            "insert <visit><treatment><test>mri</test></treatment><date>d</date></visit> \
             after hospital/patient[pname = 'Bob']/pname",
            // ... but this leaves Ann without the name her type requires.
            "delete hospital/patient[pname = 'Ann']/pname",
        ])
        .unwrap_err();
    assert!(
        matches!(
            err,
            EngineError::Update(smoqe_update::UpdateError::Schema(_))
        ),
        "got {err}"
    );
    assert!(Arc::ptr_eq(&snapshot, &engine.document().unwrap()));
    assert!(Arc::ptr_eq(&tax, &engine.tax_index().unwrap()));
    assert_eq!(doc.generation(), generation);
    assert_eq!(std::fs::metadata(&wal).unwrap().len(), wal_len);
    assert!(admin.query("//medication").unwrap().plan_cached);
    assert_eq!(engine.cache_metrics().invalidations, invalidations);

    // The next accepted transaction is unaffected by the failed one.
    assert!(engine.update(&marker_insert(0)).unwrap().validated_nodes <= 8);
    assert!(std::fs::metadata(&wal).unwrap().len() > wal_len);
}

/// The deterministic setup used by the corruption tests: returns the data
/// directory populated with a checkpoint (empty, from initialization) and
/// a WAL holding the whole history, plus the fingerprint after every
/// logged step (`states[0]` = empty engine).
fn populated_wal(tag: &str) -> (TempDir, Vec<String>) {
    let dir = TempDir::new(tag);
    let engine = recover(dir.path());
    let mut states = vec![fingerprint(&engine)];
    engine.load_dtd(hospital::DTD).unwrap();
    states.push(fingerprint(&engine));
    engine.load_document(hospital::SAMPLE_DOCUMENT).unwrap();
    states.push(fingerprint(&engine));
    engine
        .register_policy(hospital::GROUP, hospital::POLICY)
        .unwrap();
    states.push(fingerprint(&engine));
    engine.build_tax_index().unwrap();
    states.push(fingerprint(&engine));
    for i in 0..4 {
        engine.update(&marker_insert(i)).unwrap();
        states.push(fingerprint(&engine));
    }
    (dir, states)
}

/// A state digest that is defined even before a document is loaded.
fn fingerprint(engine: &Arc<Engine>) -> String {
    let mut names = engine.document_names();
    names.sort();
    let mut out = String::new();
    for name in names {
        let doc = engine.document_handle(&name).unwrap();
        out.push_str(&format!(
            "{name}|dtd:{}|view:{}|tax:{}|{}\n",
            doc.dtd().is_some(),
            doc.view(hospital::GROUP).is_ok(),
            doc.tax_index().is_some(),
            doc.document().map(|d| d.to_xml()).unwrap_or_default(),
        ));
    }
    out
}

/// Copies the populated directory, truncating its WAL to `cut` bytes.
fn copy_with_wal(src: &Path, tag: &str, wal: &[u8]) -> TempDir {
    let scratch = TempDir::new(tag);
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        if entry.file_name() != *"wal.log" {
            std::fs::copy(entry.path(), scratch.path().join(entry.file_name())).unwrap();
        }
    }
    std::fs::write(scratch.path().join("wal.log"), wal).unwrap();
    scratch
}

#[test]
fn truncating_the_wal_at_every_byte_offset_recovers_a_growing_prefix() {
    let (dir, states) = populated_wal("sweep");
    let wal = std::fs::read(dir.path().join("wal.log")).unwrap();
    assert!(wal.len() > 100, "the sweep needs a real log to cut");

    let mut last_matched = 0usize;
    for cut in 0..=wal.len() {
        let scratch = copy_with_wal(dir.path(), "sweep-cut", &wal[..cut]);
        let recovered = Engine::recover(EngineConfig::default(), scratch.path())
            .unwrap_or_else(|e| panic!("cut at {cut}/{} must recover, got: {e}", wal.len()));
        let state = fingerprint(&recovered);
        let matched = states
            .iter()
            .position(|s| *s == state)
            .unwrap_or_else(|| panic!("cut at {cut} recovered a state that never existed"));
        assert!(
            matched >= last_matched,
            "cut at {cut} recovered state {matched}, an earlier prefix than {last_matched}"
        );
        last_matched = matched;
    }
    assert_eq!(
        last_matched,
        states.len() - 1,
        "the uncut log must recover the full history"
    );
}

#[test]
fn midlog_corruption_is_refused_with_a_typed_error() {
    let (dir, _) = populated_wal("midlog");
    let mut wal = std::fs::read(dir.path().join("wal.log")).unwrap();
    // A payload byte of the first record: the record is complete, so this
    // is corruption, not a torn tail.
    wal[10] ^= 0x01;
    let scratch = copy_with_wal(dir.path(), "midlog-flip", &wal);
    match Engine::recover(EngineConfig::default(), scratch.path()) {
        Err(EngineError::Durability(DurError::Corrupt { offset: 0, .. })) => {}
        Ok(_) => panic!("recovery accepted a corrupt log"),
        Err(other) => panic!("expected a typed corruption error, got: {other}"),
    }
}

/// The live engine permits loading a document and then registering a DTD
/// it does not match (`load_dtd` never revalidates the installed
/// document). That state must checkpoint *and restore*: a restore that
/// re-validated would refuse on every boot, making the directory
/// permanently unrecoverable for state the engine accepted.
#[test]
fn a_document_loaded_before_a_mismatched_dtd_still_recovers() {
    let dir = TempDir::new("dtd-after-doc");
    let engine = recover(dir.path());
    engine.load_document(hospital::SAMPLE_DOCUMENT).unwrap();
    // A DTD the hospital document does not satisfy — accepted live.
    engine
        .load_dtd("<!ELEMENT inventory (item*)> <!ELEMENT item (#PCDATA)>")
        .unwrap();
    let before = engine.document().unwrap().to_xml();
    engine.checkpoint().unwrap();
    drop(engine);

    // Boot from the checkpoint, then once more from the checkpoint the
    // recovery itself writes — both must accept the capture as-is.
    for boot in 1..=2 {
        let recovered = Engine::recover(EngineConfig::default(), dir.path())
            .unwrap_or_else(|e| panic!("boot {boot} refused accepted state: {e}"));
        assert_eq!(recovered.document().unwrap().to_xml(), before);
        assert!(recovered.dtd().is_some(), "the mismatched DTD survives too");
        drop(recovered);
    }
}

/// Stress for the checkpoint's consistent cut: documents created and
/// loaded *while* checkpoints run must never be lost, even though they
/// were absent from the entry listing a racing checkpoint started from.
#[test]
fn documents_created_during_a_checkpoint_are_never_lost() {
    let dir = TempDir::new("ckpt-race");
    let engine = recover(dir.path());
    let n = 150;
    let writer = {
        let engine = engine.clone();
        std::thread::spawn(move || {
            for i in 0..n {
                let handle = engine.try_open_document(&format!("doc{i}")).unwrap();
                handle.load_document(&format!("<a><b>{i}</b></a>")).unwrap();
            }
        })
    };
    while !writer.is_finished() {
        engine.checkpoint().unwrap();
    }
    writer.join().unwrap();
    drop(engine); // abrupt: whatever the last checkpoint + WAL hold must suffice

    let recovered = recover(dir.path());
    for i in 0..n {
        let handle = recovered
            .document_handle(&format!("doc{i}"))
            .unwrap_or_else(|_| panic!("acknowledged doc{i} vanished after recovery"));
        assert_eq!(
            handle.document().unwrap().to_xml(),
            format!("<a><b>{i}</b></a>"),
            "doc{i} recovered torn"
        );
    }
}

#[test]
fn try_open_document_surfaces_a_dead_durability_layer() {
    let dir = TempDir::new("dead-open");
    let engine = recover(dir.path());
    engine
        .durability()
        .unwrap()
        .failpoints()
        .arm(Failpoint::CrashBeforeAppend);
    match engine.try_open_document("fresh") {
        Err(EngineError::Durability(_)) => {}
        Ok(_) => panic!("a dying creation record must surface"),
        Err(other) => panic!("expected a durability error, got: {other}"),
    }
    // The plain variant still hands out a handle, but the dead layer is
    // visible at the first data-bearing operation.
    let handle = engine.open_document("another");
    assert!(matches!(
        handle.load_document("<a/>"),
        Err(EngineError::Durability(DurError::Crashed))
    ));
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        .. ProptestConfig::default()
    })]

    /// Satellite: flipping any single bit of the WAL either recovers some
    /// prefix of the history or fails with a typed durability error —
    /// never a panic, never a state that did not exist.
    #[test]
    fn bit_flips_recover_a_prefix_or_fail_typed(byte in 0usize..4096, bit in 0u8..8) {
        let (dir, states) = populated_wal("bitflip");
        let mut wal = std::fs::read(dir.path().join("wal.log")).unwrap();
        let byte = byte % wal.len();
        wal[byte] ^= 1 << bit;
        let scratch = copy_with_wal(dir.path(), "bitflip-case", &wal);
        match Engine::recover(EngineConfig::default(), scratch.path()) {
            Ok(recovered) => {
                let state = fingerprint(&recovered);
                prop_assert!(
                    states.contains(&state),
                    "flip of bit {} at byte {} recovered a state that never existed",
                    bit, byte
                );
            }
            Err(EngineError::Durability(_)) => {} // typed refusal is the other legal outcome
            Err(other) => prop_assert!(false, "untyped failure {} for flip at {}", other, byte),
        }
    }
}
