//! Differential suite for the plan cache across writes: an engine with
//! the default plan cache must answer exactly what an engine with
//! `plan_cache_capacity: 0` answers, at every step of a random sequence
//! of admin and `researchers` queries interleaved with accepted and
//! denied updates, document reloads, DTD loads, view re-registrations
//! and drop-and-re-open under the same name.
//!
//! A cached plan is keyed by catalog entry, principal (with its view
//! generation) and query text only, so it outlives every write. The
//! sequences are built to catch a plan that silently depended on the
//! document anyway:
//! * every query of the pool runs once before the first operation, so
//!   the plans are cached before any write;
//! * an update inserts the literal `zzfresh`, absent when the plans that
//!   compare against it first ran (the value tables a plan builds lazily
//!   then meet postings that did not exist);
//! * the vocabulary first sees the label `note` in a query; a later DTD
//!   admits it and an update inserts a `note` element, a label interned
//!   after the plan was compiled.
//!
//! Each sequence runs on a DOM engine with and without a TAX index, and
//! on a stream engine.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use smoqe::workloads::hospital;
use smoqe::{Engine, EngineConfig, Session, User};
use smoqe_xml::Vocabulary;
use std::collections::HashSet;
use std::sync::Arc;

const NAME: &str = "h";

/// The hospital DTD with an optional `note` on every patient.
const DTD_WITH_NOTES: &str = r#"
<!ELEMENT hospital (patient*)>
<!ELEMENT patient  (pname, visit*, parent*, note?)>
<!ELEMENT pname    (#PCDATA)>
<!ELEMENT parent   (patient)>
<!ELEMENT visit    (treatment, date)>
<!ELEMENT treatment (test | medication)>
<!ELEMENT test     (#PCDATA)>
<!ELEMENT medication (#PCDATA)>
<!ELEMENT date     (#PCDATA)>
<!ELEMENT note     (#PCDATA)>
"#;

const DTDS: [&str; 2] = [hospital::DTD, DTD_WITH_NOTES];

const POLICIES: [&str; 3] = [
    hospital::POLICY,
    "ann(patient, pname) = N\nann(patient, visit) = [treatment/medication]\n",
    "# allow-all policy: no annotations\n",
];

/// Point queries with literals, unselective ones, the recursive
/// `(parent/patient)*` shape, and queries on the late label `note`.
const QUERIES: &[&str] = &[
    "hospital/patient[pname = 'Ann']/visit/treatment/medication",
    "hospital/patient[pname = 'Zed']",
    "//treatment[medication = 'zzfresh']",
    "//treatment[medication = 'autism']",
    "hospital/patient[visit/treatment/medication = 'zzfresh']/pname",
    "hospital/patient[treatment/medication = 'zzfresh']",
    "hospital/patient[treatment/medication = 'headache']",
    "//medication",
    "//*",
    "hospital/patient/treatment",
    "//patient[not(parent)]/visit",
    "hospital/patient/(parent/patient)*/pname",
    "hospital/patient/(parent/patient)*/treatment",
    "hospital/patient[(parent/patient)*/visit/treatment/medication = 'zzfresh']",
    "//note",
    "hospital/patient[note = 'n1']/pname",
];

const UPDATES: &[&str] = &[
    "insert <patient><pname>Zed</pname><visit><treatment><medication>zzfresh</medication>\
     </treatment><date>d</date></visit></patient> into hospital",
    "insert <patient><pname>Zed</pname><visit><treatment><medication>autism</medication>\
     </treatment><date>d</date></visit></patient> into hospital",
    "insert <parent><patient><pname>Kid</pname><visit><treatment><medication>zzfresh\
     </medication></treatment><date>d</date></visit></patient></parent> \
     into hospital/patient[pname = 'Ann']",
    "delete hospital/patient[pname = 'Bob']",
    "delete //pname",
    "replace hospital/patient/treatment/medication with <medication>zzfresh</medication>",
    "replace hospital/patient/visit/treatment/medication with <medication>zzfresh</medication>",
    "insert <note>n1</note> into hospital/patient[pname = 'Ann']",
    "insert <note>n1</note> into hospital/patient",
];

fn user(group: bool) -> User {
    if group {
        User::Group(hospital::GROUP.into())
    } else {
        User::Admin
    }
}

/// A document to (re)load: the sample, the sample with every headache
/// turned into autism, or a small generated one.
fn document(rng: &mut StdRng) -> String {
    match rng.random_range(0..3) {
        0 => hospital::SAMPLE_DOCUMENT.to_string(),
        1 => hospital::SAMPLE_DOCUMENT.replace("headache", "autism"),
        _ => {
            hospital::generate_document(&Vocabulary::new(), rng.random_range(0..1000), 120).to_xml()
        }
    }
}

/// One engine of the pair. Every step is applied to both engines and
/// reduced to a comparable string: answers (nodes and, where rendered,
/// XML), update reports, or the error text.
struct Side {
    engine: Arc<Engine>,
    tax: bool,
    /// Sessions still bound to entries dropped from the catalog.
    orphans: Vec<Session>,
}

impl Side {
    fn new(config: EngineConfig, tax: bool) -> Side {
        let side = Side {
            engine: Engine::new(config),
            tax,
            orphans: Vec::new(),
        };
        side.install(hospital::SAMPLE_DOCUMENT, DTDS[0], POLICIES[0]);
        side
    }

    /// Opens (or re-opens) the document and loads everything into it:
    /// the document first, so no DTD can refuse it.
    fn install(&self, xml: &str, dtd: &str, policy: &str) {
        let doc = self.engine.open_document(NAME);
        doc.load_document(xml).unwrap();
        doc.load_dtd(dtd).unwrap();
        doc.register_policy(hospital::GROUP, policy).unwrap();
        if self.tax {
            doc.build_tax_index().unwrap();
        }
    }

    fn session(&self, group: bool) -> Session {
        self.engine.session_on(NAME, user(group)).unwrap()
    }

    /// Answers `query`, reporting whether the plan came from the cache.
    fn ask(session: &Session, query: &str) -> (String, bool) {
        match session.query(query) {
            Ok(a) => (format!("{:?} {:?}", a.nodes, a.xml), a.plan_cached),
            Err(e) => (format!("error: {e}"), false),
        }
    }

    fn query(&self, group: bool, query: &str) -> (String, bool) {
        Side::ask(&self.session(group), query)
    }

    fn update(&self, group: bool, statement: &str) -> (String, bool) {
        match self.session(group).update(statement) {
            Ok(r) => (
                format!("{} {} {}", r.applied, r.nodes_before, r.nodes_after),
                true,
            ),
            Err(e) => (format!("error: {e}"), false),
        }
    }

    fn reload(&self, xml: &str) -> String {
        let doc = self.engine.document_handle(NAME).unwrap();
        let loaded = doc.load_document(xml).map_err(|e| e.to_string());
        if self.tax && loaded.is_ok() {
            doc.build_tax_index().unwrap();
        }
        format!("{loaded:?}")
    }

    fn load_dtd(&self, dtd: &str) {
        self.engine
            .document_handle(NAME)
            .unwrap()
            .load_dtd(dtd)
            .unwrap();
    }

    fn register(&self, policy: &str) {
        self.engine
            .document_handle(NAME)
            .unwrap()
            .register_policy(hospital::GROUP, policy)
            .unwrap();
    }

    /// Drops the document and re-opens the name with the same content,
    /// keeping a session of each principal on the dropped entry.
    fn reopen(&mut self, xml: &str, dtd: &str, policy: &str) {
        let orphans = [false, true].map(|group| self.session(group));
        self.orphans.extend(orphans);
        assert!(self.engine.drop_document(NAME));
        self.install(xml, dtd, policy);
    }
}

/// Asks `query` on both engines and compares the answers. `resident`
/// holds the (principal, query) pairs whose plans the cached engine must
/// still hold; a pair asked again must be a cache hit.
fn ask<'q>(
    cached: &Side,
    uncached: &Side,
    resident: &mut HashSet<(bool, &'q str)>,
    (group, query): (bool, &'q str),
    log: &[String],
) {
    let (answer, plan_cached) = cached.query(group, query);
    assert_eq!(
        answer,
        uncached.query(group, query).0,
        "`{query}` after {log:?}"
    );
    if !resident.insert((group, query)) {
        assert!(
            plan_cached,
            "`{query}` (group: {group}) lost its plan after {log:?}"
        );
    }
}

/// Runs one random sequence on a cached and an uncached engine of the
/// same configuration, comparing every step. A query whose plan the
/// cached engine holds (asked since the entry was opened, and for the
/// group since its view was registered) must also be a cache hit,
/// however many writes, reloads and DTD loads came in between.
fn run_sequence(config: EngineConfig, tax: bool, seed: u64, steps: usize) {
    let mut cached = Side::new(config, tax);
    let mut uncached = Side::new(
        EngineConfig {
            plan_cache_capacity: 0,
            ..config
        },
        tax,
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut dtd, mut policy) = (DTDS[0], POLICIES[0]);
    let mut log = Vec::new();
    let mut resident: HashSet<(bool, &str)> = HashSet::new();
    macro_rules! same {
        ($step:expr, $op:expr) => {{
            let (a, b) = ($op(&cached), $op(&uncached));
            assert_eq!(a, b, "diverged at `{}` after {:?}", $step, log);
            a
        }};
    }
    for group in [false, true] {
        for query in QUERIES {
            ask(&cached, &uncached, &mut resident, (group, query), &log);
        }
    }
    for _ in 0..steps {
        let group = rng.random_bool(0.5);
        let step = match rng.random_range(0..16) {
            0..=6 => {
                let query = QUERIES[rng.random_range(0..QUERIES.len())];
                ask(&cached, &uncached, &mut resident, (group, query), &log);
                format!("query {group} {query}")
            }
            7..=10 => {
                let statement = UPDATES[rng.random_range(0..UPDATES.len())];
                let accepted = same!(statement, |s: &Side| s.update(group, statement)).1;
                format!("update {group} {statement} -> {accepted}")
            }
            11 => {
                let xml = document(&mut rng);
                same!("reload", |s: &Side| s.reload(&xml));
                "reload".to_string()
            }
            12 => {
                dtd = DTDS[rng.random_range(0..DTDS.len())];
                same!("dtd", |s: &Side| s.load_dtd(dtd));
                format!("dtd {}", dtd == DTD_WITH_NOTES)
            }
            13 => {
                policy = POLICIES[rng.random_range(0..POLICIES.len())];
                same!("register", |s: &Side| s.register(policy));
                resident.retain(|&(group, _)| !group);
                format!("register {policy:?}")
            }
            14 => {
                let doc = cached.engine.document_handle(NAME).unwrap();
                let xml = doc.document().unwrap().to_xml();
                cached.reopen(&xml, dtd, policy);
                uncached.reopen(&xml, dtd, policy);
                resident.clear();
                "reopen".to_string()
            }
            _ => {
                let Some(i) =
                    (!cached.orphans.is_empty()).then(|| rng.random_range(0..cached.orphans.len()))
                else {
                    continue;
                };
                let query = QUERIES[rng.random_range(0..QUERIES.len())];
                same!(query, |s: &Side| Side::ask(&s.orphans[i], query).0);
                format!("orphan {i} {query}")
            }
        };
        log.push(step);
    }
    // One write every DTD admits, then every resident plan once more.
    same!("dtd", |s: &Side| s.load_dtd(DTD_WITH_NOTES));
    let accepted = same!("final write", |s: &Side| s.update(false, UPDATES[1])).1;
    assert!(accepted, "the final write must be accepted");
    log.push("final write".to_string());
    let mut again: Vec<(bool, &str)> = resident.iter().copied().collect();
    again.sort();
    for (group, query) in again {
        ask(&cached, &uncached, &mut resident, (group, query), &log);
    }
    assert_eq!(uncached.engine.cache_metrics().hits, 0);
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        .. ProptestConfig::default()
    })]

    #[test]
    fn cached_plans_answer_like_fresh_ones_across_writes(seed in 0u64..1_000_000) {
        run_sequence(EngineConfig::default(), false, seed, 40);
        run_sequence(EngineConfig::default(), true, seed, 40);
        run_sequence(EngineConfig::streaming(), false, seed, 40);
    }
}
