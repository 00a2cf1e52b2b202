//! The multi-tenant serving surface: one engine, many documents, many
//! concurrent sessions.
//!
//! * owned `Send + Sync` sessions answer queries from many threads with
//!   answers identical to serial evaluation;
//! * repeated queries hit the shared plan cache (observable through the
//!   exposed hit/miss counters);
//! * replacing a document, its DTD, or a view invalidates exactly the
//!   affected cached plans;
//! * catalog documents and their user groups are isolated from each other.

use smoqe::workloads::{hospital, org};
use smoqe::{DocHandle, Engine, EngineConfig, User};
use smoqe_xml::NodeId;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn hospital_doc(engine: &Arc<Engine>, name: &str) -> DocHandle {
    let doc = engine.open_document(name);
    hospital::install_sample(&doc).unwrap();
    doc
}

/// Every (user, query) pair a serving mix would issue against the
/// hospital sample, with several distinct groups registered.
fn serving_mix(doc: &DocHandle) -> Vec<(User, &'static str)> {
    doc.register_view_spec(
        "meds-only",
        "<!ELEMENT hospital (medication*)>\n\
         <!ELEMENT medication (#PCDATA)>\n\
         sigma(hospital, medication) = patient/visit/treatment/medication\n",
    )
    .unwrap();
    doc.register_policy("open", "# allow-all policy: no annotations\n")
        .unwrap();
    let mut mix = Vec::new();
    for (_, q) in hospital::DOC_QUERIES {
        mix.push((User::Admin, *q));
    }
    for (_, q) in hospital::VIEW_QUERIES {
        for group in [hospital::GROUP, "open"] {
            mix.push((User::Group(group.into()), *q));
        }
    }
    mix.push((User::Group("meds-only".into()), "hospital/medication"));
    mix.push((User::Group("meds-only".into()), "//patient"));
    mix
}

#[test]
fn concurrent_sessions_agree_with_serial_evaluation() {
    let engine = Engine::with_defaults();
    let doc = hospital_doc(&engine, "hospital");
    doc.build_tax_index().unwrap();
    let mix = serving_mix(&doc);

    // Serial reference, computed before any threads exist.
    let serial: Vec<Vec<NodeId>> = mix
        .iter()
        .map(|(user, q)| doc.session(user.clone()).query(q).unwrap().nodes)
        .collect();

    // Two full passes over the mix from each of 8 threads, all through
    // owned sessions of the same engine.
    const THREADS: usize = 8;
    let mix = Arc::new(mix);
    let serial = Arc::new(serial);
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let doc = doc.clone();
            let mix = mix.clone();
            let serial = serial.clone();
            std::thread::spawn(move || {
                // Stagger starting offsets so threads hit different
                // queries at the same time.
                for round in 0..2 {
                    for i in 0..mix.len() {
                        let idx = (i + t * 3 + round) % mix.len();
                        let (user, q) = &mix[idx];
                        let session = doc.session(user.clone());
                        let answer = session.query(q).unwrap();
                        assert_eq!(
                            answer.nodes, serial[idx],
                            "thread {t} diverged from serial on `{q}` as {user:?}"
                        );
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let m = engine.cache_metrics();
    assert!(
        m.hits > 0,
        "the concurrent mix must reuse cached plans: {m:?}"
    );
}

#[test]
fn repeated_query_is_a_cache_hit() {
    let engine = Engine::with_defaults();
    let doc = hospital_doc(&engine, "h");
    let session = doc.session(User::Group(hospital::GROUP.into()));

    let before = engine.cache_metrics();
    let first = session.query("//medication").unwrap();
    assert!(!first.plan_cached, "first run must compile");
    let second = session.query("//medication").unwrap();
    assert!(second.plan_cached, "second run must hit the cache");
    assert_eq!(first.nodes, second.nodes);

    let after = engine.cache_metrics();
    assert_eq!(after.hits, before.hits + 1);
    assert_eq!(after.misses, before.misses + 1);
    assert!(after.entries >= 1);
}

#[test]
fn document_replacement_invalidates_cached_plans() {
    let engine = Engine::with_defaults();
    let doc = hospital_doc(&engine, "h");
    let session = doc.session(User::Admin);
    session.query("//medication").unwrap();
    assert!(session.query("//medication").unwrap().plan_cached);

    doc.load_document(hospital::SAMPLE_DOCUMENT).unwrap();
    let invalidations = engine.cache_metrics().invalidations;
    assert!(invalidations >= 1, "reload must invalidate cached plans");
    assert!(
        !session.query("//medication").unwrap().plan_cached,
        "post-reload query must recompile"
    );
}

#[test]
fn view_reregistration_invalidates_only_that_group() {
    let engine = Engine::with_defaults();
    let doc = hospital_doc(&engine, "h");
    let researcher = doc.session(User::Group(hospital::GROUP.into()));
    let admin = doc.session(User::Admin);
    researcher.query("//medication").unwrap();
    admin.query("//medication").unwrap();

    doc.register_policy(hospital::GROUP, hospital::POLICY)
        .unwrap();
    assert!(
        !researcher.query("//medication").unwrap().plan_cached,
        "the re-registered group's plans must be invalid"
    );
    assert!(
        admin.query("//medication").unwrap().plan_cached,
        "admin plans must survive a view change"
    );
}

#[test]
fn documents_in_the_catalog_are_isolated() {
    let engine = Engine::with_defaults();
    let hosp = hospital_doc(&engine, "hospital");
    let orgdoc = engine.open_document("org");
    org::install_sample(&orgdoc).unwrap();

    // Same query text, same engine, different documents and policies.
    let hosp_all = hosp.session(User::Admin).query("//*").unwrap();
    let org_all = orgdoc.session(User::Admin).query("//*").unwrap();
    assert_ne!(hosp_all.nodes.len(), org_all.nodes.len());

    // Groups are scoped to their document.
    assert!(orgdoc
        .session(User::Group(hospital::GROUP.into()))
        .query("//emp")
        .is_err());
    assert!(hosp
        .session(User::Group(org::GROUP.into()))
        .query("//patient")
        .is_err());

    // Sessions opened by name agree with handle-minted ones.
    let by_name = engine
        .session_on("org", User::Group(org::GROUP.into()))
        .unwrap();
    let by_handle = orgdoc.session(User::Group(org::GROUP.into()));
    assert_eq!(
        by_name.query("//ename").unwrap().nodes,
        by_handle.query("//ename").unwrap().nodes
    );
}

#[test]
fn stale_session_on_reopened_name_cannot_poison_the_cache() {
    // Regression: generation counters restart per entry, so a document
    // name that is dropped and re-opened reproduces old (name, generation)
    // pairs. A session still bound to the OLD entry must not repopulate
    // plan-cache keys the NEW entry's sessions then hit — its plans were
    // rewritten through the old security view.
    let engine = Engine::with_defaults();
    let old = engine.open_document("h");
    hospital::install_sample(&old).unwrap();
    let old_session = old.session(User::Group(hospital::GROUP.into()));

    assert!(engine.drop_document("h"));
    let fresh = engine.open_document("h");
    fresh.load_dtd(hospital::DTD).unwrap();
    fresh.load_document(hospital::SAMPLE_DOCUMENT).unwrap();
    // Same generation sequence as the old entry, but an allow-all view.
    fresh
        .register_policy(hospital::GROUP, "# allow-all policy: no annotations\n")
        .unwrap();

    // The old session caches a plan compiled through the restrictive view.
    assert!(old_session.query("//pname").unwrap().is_empty());
    // The fresh entry's session must compile its own plan (no cache hit
    // across entries) and see names per the allow-all policy.
    let fresh_answer = fresh
        .session(User::Group(hospital::GROUP.into()))
        .query("//pname")
        .unwrap();
    assert!(!fresh_answer.plan_cached, "cross-entry cache hit");
    assert!(!fresh_answer.is_empty(), "old view leaked into new entry");
}

#[test]
fn sessions_survive_document_drop_and_reload() {
    let engine = Engine::with_defaults();
    let doc = hospital_doc(&engine, "h");
    let session = doc.session(User::Admin);
    assert!(!session.query("//medication").unwrap().is_empty());

    // Dropping the catalog name doesn't kill live sessions...
    assert!(engine.drop_document("h"));
    assert!(!session.query("//medication").unwrap().is_empty());
    // ...but the name is gone from the catalog.
    assert!(engine.session_on("h", User::Admin).is_err());

    // Re-opening the name creates a fresh, empty entry.
    let fresh = engine.open_document("h");
    assert!(fresh.session(User::Admin).query("//medication").is_err());
}

#[test]
fn multi_group_batch_shares_one_scan_and_matches_serial() {
    // One engine, one document, FOUR principals (admin + three groups with
    // different views): a single cross-session batch must answer all of
    // them against one snapshot, each through its own view — in one scan
    // on a stream engine.
    let engine = Engine::new(EngineConfig::streaming());
    let doc = hospital_doc(&engine, "hospital");
    let mix = serving_mix(&doc);

    let sessions: Vec<smoqe::Session> = mix
        .iter()
        .map(|(user, _)| doc.session(user.clone()))
        .collect();
    let requests: Vec<(&smoqe::Session, &str)> = sessions
        .iter()
        .zip(mix.iter())
        .map(|(s, (_, q))| (s, *q))
        .collect();

    let batch = engine.evaluate_batch(&requests).unwrap();
    assert_eq!(batch.answers.len(), mix.len());
    for ((user, q), answer) in mix.iter().zip(&batch.answers) {
        let serial = doc.session(user.clone()).query(q).unwrap();
        assert_eq!(
            answer.nodes, serial.nodes,
            "batched `{q}` as {user:?} diverged from serial"
        );
    }
    // The whole multi-group mix cost a single document scan.
    let one_scan = engine.evaluate_batch(&requests[..1]).unwrap().events;
    assert!(one_scan > 0);
    assert_eq!(batch.events, one_scan, "batch re-scanned the document");

    // A DOM engine answers the same mix identically without parsing.
    let dom_engine = Engine::with_defaults();
    let dom_doc = hospital_doc(&dom_engine, "hospital");
    serving_mix(&dom_doc);
    let dom_sessions: Vec<smoqe::Session> = mix
        .iter()
        .map(|(user, _)| dom_doc.session(user.clone()))
        .collect();
    let dom_requests: Vec<(&smoqe::Session, &str)> = dom_sessions
        .iter()
        .zip(mix.iter())
        .map(|(s, (_, q))| (s, *q))
        .collect();
    let dom_batch = dom_engine.evaluate_batch(&dom_requests).unwrap();
    assert_eq!(dom_batch.events, 0, "a DOM batch never parses");
    for (dom, streamed) in dom_batch.answers.iter().zip(&batch.answers) {
        assert_eq!(dom.nodes, streamed.nodes);
    }

    // The mix covers several distinct principals over the same scan.
    let distinct: std::collections::HashSet<_> = mix.iter().map(|(u, _)| u.clone()).collect();
    assert!(distinct.len() >= 4, "mix should span admin + 3 groups");

    // Batching from multiple threads stays consistent too.
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let engine = &engine;
            let requests = &requests;
            let batch = &batch;
            scope.spawn(move || {
                let again = engine.evaluate_batch(requests).unwrap();
                for (a, b) in again.answers.iter().zip(&batch.answers) {
                    assert_eq!(a.nodes, b.nodes);
                }
            });
        }
    });
}

/// Applies one update through the engine's write path the first time the
/// evaluator enters a node — i.e. provably *while a query is running*.
struct MidQueryUpdater {
    doc: DocHandle,
    statement: &'static str,
    fired: bool,
}

impl smoqe::hype::EvalObserver for MidQueryUpdater {
    fn enter_node(&mut self, _node: u32, _label: smoqe_xml::Label, _depth: usize) {
        if !self.fired {
            self.fired = true;
            self.doc.update(self.statement).unwrap();
        }
    }
}

#[test]
fn update_landing_mid_query_leaves_the_reader_on_its_snapshot() {
    // Deterministic reader isolation: the update is applied from inside
    // the evaluation (via the observer hook), so the query is mid-flight
    // by construction when the new snapshot is installed. The in-flight
    // query must complete with pre-update answers — evaluation holds no
    // lock, only its Arc snapshot — and the next query sees the update.
    let engine = Engine::with_defaults();
    let doc = hospital_doc(&engine, "h");
    doc.build_tax_index().unwrap();
    let session = doc.session(User::Admin);
    let pre = session.query("//medication").unwrap().nodes;

    let mut updater = MidQueryUpdater {
        doc: doc.clone(),
        statement: "insert <patient><pname>Mid</pname><visit><treatment>\
                    <medication>autism</medication></treatment><date>d</date></visit>\
                    </patient> into hospital",
        fired: false,
    };
    let during = session
        .query_observed("//medication", &mut updater)
        .unwrap();
    assert!(updater.fired, "the update must have landed mid-query");
    assert_eq!(
        during.nodes, pre,
        "the in-flight reader must finish on its pre-update snapshot"
    );

    let after = session.query("//medication").unwrap();
    assert_eq!(after.len(), pre.len() + 1, "a fresh query sees the update");
    assert!(
        !after.plan_cached,
        "the update invalidated this doc's plans"
    );
}

#[test]
fn mid_batch_readers_complete_on_exactly_one_snapshot() {
    // A thread runs query_batch while the main thread applies an update.
    // Whichever side wins the race, the batch must be answered entirely
    // from ONE snapshot: all answers pre-update, or all post-update —
    // never a torn mix — and a fresh batch afterwards is all-post.
    let engine = Engine::with_defaults();
    let doc = engine.open_document("big");
    doc.load_dtd(hospital::DTD).unwrap();
    let tree = {
        let vocab = engine.vocabulary().clone();
        hospital::generate_document(&vocab, 7, 20_000)
    };
    doc.load_document_tree(tree).unwrap();
    let queries = ["//medication", "//pname", "//patient"];
    let statement = "insert <patient><pname>Raced</pname><visit><treatment>\
                     <medication>autism</medication></treatment><date>d</date></visit>\
                     </patient> into hospital";

    let pre: Vec<Vec<NodeId>> = doc
        .query_batch(&User::Admin, &queries)
        .unwrap()
        .answers
        .into_iter()
        .map(|a| a.nodes)
        .collect();

    let session = doc.session(User::Admin);
    let (tx, rx) = std::sync::mpsc::channel();
    let reader = std::thread::spawn(move || {
        tx.send(()).unwrap();
        session.query_batch(&queries).unwrap()
    });
    rx.recv().unwrap();
    doc.update(statement).unwrap();
    let raced = reader.join().unwrap();

    let post: Vec<Vec<NodeId>> = doc
        .query_batch(&User::Admin, &queries)
        .unwrap()
        .answers
        .into_iter()
        .map(|a| a.nodes)
        .collect();
    for (p, q) in pre.iter().zip(&post) {
        assert_eq!(
            q.len(),
            p.len() + 1,
            "the inserted patient shifts every count"
        );
    }

    let raced: Vec<Vec<NodeId>> = raced.answers.into_iter().map(|a| a.nodes).collect();
    assert!(
        raced == pre || raced == post,
        "the racing batch mixed snapshots: {:?} answers",
        raced.iter().map(Vec::len).collect::<Vec<_>>()
    );
}

#[test]
fn serialized_batches_render_from_their_evaluation_snapshot() {
    // A writer flips the document between two states — A, and B = A plus
    // one patient inserted at the FRONT (so every node id shifts) — while
    // readers loop `query_batch_serialized`. Node ids only mean something
    // relative to the snapshot they were computed on, so each batch's
    // (nodes, xml) must equal state A's or state B's wholesale; ids of one
    // state rendered against the other's document would serialize the
    // wrong subtrees (or run off the end of the node table).
    let insert = "insert <patient><pname>Raced</pname><visit><treatment>\
                  <medication>autism</medication></treatment><date>d</date></visit>\
                  </patient> before hospital/patient[pname = 'Ann']";
    let delete = "delete hospital/patient[pname = 'Raced']";
    for eval_threads in [1, 2] {
        let engine = Engine::new(EngineConfig {
            eval_threads,
            ..EngineConfig::default()
        });
        let doc = hospital_doc(&engine, "h");
        let admin_queries = ["//pname", "//medication", "//visit"];
        let group_queries = ["//medication", "hospital/patient/treatment"];
        let snapshot_of = |user: &User, queries: &[&str]| -> Vec<(Vec<NodeId>, Vec<String>)> {
            let batch = doc.session(user.clone()).query_batch_serialized(queries);
            batch
                .unwrap()
                .answers
                .into_iter()
                .map(|a| (a.nodes, a.xml.expect("serialized")))
                .collect()
        };
        let group = User::Group(hospital::GROUP.into());
        let state_a = (
            snapshot_of(&User::Admin, &admin_queries),
            snapshot_of(&group, &group_queries),
        );
        doc.update(insert).unwrap();
        let state_b = (
            snapshot_of(&User::Admin, &admin_queries),
            snapshot_of(&group, &group_queries),
        );
        doc.update(delete).unwrap();
        assert_ne!(state_a.0, state_b.0, "the insert must shift node ids");
        for (nodes, xml) in state_a.0.iter().chain(&state_a.1) {
            assert_eq!(nodes.len(), xml.len());
        }

        // Stops the writer when the readers finish — or panic.
        struct StopOnDrop<'a>(&'a AtomicBool);
        impl Drop for StopOnDrop<'_> {
            fn drop(&mut self) {
                self.0.store(true, Ordering::SeqCst);
            }
        }
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                while !stop.load(Ordering::SeqCst) {
                    doc.update(insert).unwrap();
                    doc.update(delete).unwrap();
                }
            });
            let _stop = StopOnDrop(&stop);
            for round in 0..400 {
                let admin = snapshot_of(&User::Admin, &admin_queries);
                let view = snapshot_of(&group, &group_queries);
                assert!(
                    (admin == state_a.0 || admin == state_b.0)
                        && (view == state_a.1 || view == state_b.1),
                    "round {round} @ {eval_threads} eval threads: a batch mixed \
                     snapshots\nadmin: {admin:?}\nview: {view:?}"
                );
            }
        });
    }
}

#[test]
fn dropped_documents_plans_are_purged_eagerly_and_stay_out() {
    // Regression (cache hygiene on drop): dropping a document must purge
    // its plans immediately — counted as invalidations, not left to decay
    // via capacity eviction — and a session still bound to the dropped
    // entry must not repopulate the shared cache afterwards.
    let engine = Engine::with_defaults();
    let doc = hospital_doc(&engine, "h");
    let session = doc.session(User::Admin);
    session.query("//medication").unwrap();
    session.query("//pname").unwrap();
    let before = engine.cache_metrics();
    assert_eq!(before.entries, 2, "two plans resident pre-drop");

    assert!(engine.drop_document("h"));
    let after = engine.cache_metrics();
    assert_eq!(after.entries, 0, "drop must purge the plans eagerly");
    assert_eq!(
        after.invalidations,
        before.invalidations + 2,
        "purged plans count as invalidations"
    );

    // The surviving session still works, but compiles outside the cache.
    let answer = session.query("//medication").unwrap();
    assert!(!answer.is_empty());
    assert!(!answer.plan_cached);
    let repeat = session.query("//medication").unwrap();
    assert!(
        !repeat.plan_cached,
        "a dropped entry must not regrow cache residency"
    );
    assert_eq!(engine.cache_metrics().entries, 0);
}

#[test]
fn concurrent_sessions_work_across_documents_and_modes() {
    // DOM and stream engines, each serving two documents from 4 threads
    // per engine; every thread's answers must match the serial ones.
    for config in [EngineConfig::default(), EngineConfig::streaming()] {
        let engine = Engine::new(config);
        let hosp = hospital_doc(&engine, "hospital");
        let orgdoc = engine.open_document("org");
        org::install_sample(&orgdoc).unwrap();

        let work: Vec<(DocHandle, User, &str)> = vec![
            (
                hosp.clone(),
                User::Group(hospital::GROUP.into()),
                "//medication",
            ),
            (hosp.clone(), User::Admin, "hospital/patient/pname"),
            (orgdoc.clone(), User::Group(org::GROUP.into()), "//ename"),
            (orgdoc.clone(), User::Admin, "//salary"),
        ];
        let serial: Vec<Vec<NodeId>> = work
            .iter()
            .map(|(doc, user, q)| doc.session(user.clone()).query(q).unwrap().nodes)
            .collect();
        let work = Arc::new(work);
        let serial = Arc::new(serial);
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let work = work.clone();
                let serial = serial.clone();
                std::thread::spawn(move || {
                    for i in 0..work.len() {
                        let idx = (i + t) % work.len();
                        let (doc, user, q) = &work[idx];
                        let nodes = doc.session(user.clone()).query(q).unwrap().nodes;
                        assert_eq!(nodes, serial[idx], "{q} diverged");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }
}
