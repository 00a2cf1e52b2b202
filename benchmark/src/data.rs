//! Inputs and the oracle: documents, query pools and the correctness
//! gate. Everything the engine sees is generated here from the seed.

use crate::util::{Fnv, Rng};
use smoqe::workloads::hospital;
use smoqe::{Answer, DocHandle, Engine, Session, User};
use smoqe_server::RemoteAnswer;
use smoqe_xml::{Document, Dtd, NodeId, Vocabulary};
use std::sync::Arc;

/// Catalog name every workload loads its document under.
pub const DOC: &str = "wards";

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Who {
    Admin,
    Group,
}

impl Who {
    pub fn user(self) -> User {
        match self {
            Who::Admin => User::Admin,
            Who::Group => User::Group(hospital::GROUP.to_string()),
        }
    }

    pub fn principal(self) -> smoqe_server::Principal {
        match self {
            Who::Admin => smoqe_server::Principal::Admin,
            Who::Group => smoqe_server::Principal::Group(hospital::GROUP.to_string()),
        }
    }
}

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PoolQuery {
    pub who: Who,
    pub text: String,
}

fn q(who: Who, text: &str) -> PoolQuery {
    PoolQuery {
        who,
        text: text.to_string(),
    }
}

pub fn unique_pname(seed: u64, i: usize) -> String {
    format!("P{seed}x{i}")
}

pub fn unique_medication(seed: u64, i: usize) -> String {
    format!("M{seed}x{i}")
}

/// Depth cap of the generated documents, below the fourteen levels of
/// the engine's own hospital settings (two recursive `parent/patient`
/// steps remain). With fourteen a document is a few very large top-level
/// patients, about 1.5 per thousand nodes; with eight, ten times as many
/// smaller ones. What policy S0 shows is decided per top-level patient, so
/// the fewer there are, the more the view — and the cost of every view
/// query — depends on the luck of a handful of draws.
const MAX_DEPTH: usize = 8;

/// The seed every generated document body comes from. What a query
/// costs follows the body's shape — how many patients, how deep, how
/// many of them S0 shows — and that shape moves the end-to-end numbers
/// by 5 to 30 % from one generator seed to the next, far more than any
/// bound. So the body is one fixed draw per size, and `--seed` decides
/// everything else: the unique patients' literals and where they are
/// spliced in, the order of ops, the request mix, the transactions.
const BODY_SEED: u64 = 2006;

/// A hospital document of roughly `nodes` nodes with `uniques` extra
/// top-level patients spliced in between the generated ones, at places
/// drawn from `seed`. Patient `i` carries a `pname` and a `medication`
/// literal that occur nowhere else, and an autism medication so policy S0
/// keeps it — and therefore its unique medication — visible to
/// `researchers`.
///
/// With `keep`, the generated body is cut down to exactly that many
/// top-level patients (generate at least a hundred nodes per patient
/// kept). A rewritten `hospital/patient[…]` query costs the same for every
/// top-level patient it has to check, so the small documents — where that
/// check is all the evaluation there is — hold their number fixed.
pub fn hospital_xml(seed: u64, nodes: usize, uniques: usize, keep: Option<usize>) -> String {
    // The generator only needs a vocabulary of its own: the engine parses
    // the text again with the one it owns.
    let vocab = Vocabulary::new();
    let mut config = hospital::generator_config(&vocab, BODY_SEED, nodes);
    config.max_depth = MAX_DEPTH;
    let mut base = smoqe_xml::generate(&hospital::dtd(&vocab), &config)
        .expect("hospital DTD generates")
        .to_xml();
    // `parent` holds exactly one patient, so this boundary only ever
    // occurs between two top-level patients.
    const BOUNDARY: &str = "</patient><patient>";
    if let Some(keep) = keep {
        let cut = base
            .match_indices(BOUNDARY)
            .nth(keep.saturating_sub(1))
            .map(|(at, _)| at + "</patient>".len())
            .expect("the generated document has more top-level patients than are kept");
        base.truncate(cut);
        base.push_str("</hospital>");
    }
    let mut slots: Vec<usize> = base
        .match_indices(BOUNDARY)
        .map(|(at, _)| at + "</patient>".len())
        .collect();
    slots.push(base.rfind("</hospital>").expect("hospital root element"));
    let mut rng = Rng::forked(seed, 0xD0C);
    let mut places: Vec<usize> = (0..uniques)
        .map(|_| slots[rng.below(slots.len() as u64) as usize])
        .collect();
    places.sort_unstable();
    let mut out = String::with_capacity(base.len() + uniques * 256);
    let mut copied = 0;
    for (i, at) in places.into_iter().enumerate() {
        out.push_str(&base[copied..at]);
        copied = at;
        out.push_str(&format!(
            "<patient><pname>{}</pname>\
             <visit><treatment><medication>autism</medication></treatment><date>2006-01-11</date></visit>\
             <visit><treatment><medication>{}</medication></treatment><date>2006-02-07</date></visit>\
             </patient>",
            unique_pname(seed, i),
            unique_medication(seed, i)
        ));
    }
    out.push_str(&base[copied..]);
    out
}

/// The unselective pool: the engine's six document queries for the
/// admin, its six view queries for `researchers`, and one more admin
/// query. Thirteen, an odd number on purpose: the ops walk the pool in
/// whole laps, so each query holds an equal band of the latency
/// distribution, and with an odd count the median falls in the middle of
/// a band instead of on the edge between two queries of different cost.
pub fn scan_pool() -> Vec<PoolQuery> {
    let mut pool: Vec<PoolQuery> = hospital::DOC_QUERIES
        .iter()
        .map(|(_, text)| q(Who::Admin, text))
        .collect();
    pool.extend(
        hospital::VIEW_QUERIES
            .iter()
            .map(|(_, text)| q(Who::Group, text)),
    );
    pool.push(q(Who::Admin, "//visit/date"));
    pool
}

/// Point queries with one-element posting lists: the admin finds unique
/// patients by `pname`, `researchers` find them by their unique
/// `medication`. `per_side` of each.
pub fn point_pool(seed: u64, uniques: usize, per_side: usize) -> Vec<PoolQuery> {
    let mut pool = Vec::with_capacity(per_side * 2);
    for i in 0..per_side.min(uniques) {
        pool.push(q(
            Who::Admin,
            &format!(
                "//patient[pname = '{}']/visit/treatment/medication",
                unique_pname(seed, i)
            ),
        ));
    }
    for i in 0..per_side.min(uniques) {
        pool.push(q(
            Who::Group,
            &format!(
                "hospital/patient[treatment/medication = '{}']/treatment",
                unique_medication(seed, i)
            ),
        ));
    }
    pool
}

/// View-query shapes for the plan-cache-miss workload; `{}` takes the
/// literal. Three, so the median falls inside the middle one.
pub const COLD_SHAPES: [&str; 3] = [
    "hospital/patient/treatment[medication = '{}']",
    "hospital/patient[treatment/medication = '{}']/treatment",
    "hospital/patient/(parent/patient)*[treatment/medication = '{}']/treatment",
];

pub fn cold_query(shape: usize, literal: &str) -> String {
    COLD_SHAPES[shape % COLD_SHAPES.len()].replace("{}", literal)
}

/// A literal no document contains, distinct per `(seed, thread, op)`.
pub fn fresh_literal(seed: u64, thread: usize, op: u64) -> String {
    format!("zz{seed}t{thread}n{op}")
}

/// What the oracle says a query answers, in the forms the run can check
/// cheaply on every op.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Expected {
    pub count: usize,
    /// FNV of the answer's source node ids, in document order.
    pub ids: u64,
    /// Total bytes and FNV of the serialized answers (what a group
    /// principal receives over the wire instead of ids).
    pub xml_bytes: usize,
    pub xml: u64,
}

fn ids_hash(ids: impl Iterator<Item = u64>) -> u64 {
    let mut h = Fnv::default();
    for id in ids {
        h.u64(id);
    }
    h.0
}

fn xml_hash(xml: &[String]) -> (usize, u64) {
    let mut h = Fnv::default();
    let mut bytes = 0;
    for s in xml {
        h.bytes(s.as_bytes());
        h.bytes(&[0]);
        bytes += s.len();
    }
    (bytes, h.0)
}

impl Expected {
    /// The empty answer.
    pub fn empty() -> Expected {
        Expected {
            ids: ids_hash(std::iter::empty()),
            ..Expected::default()
        }
    }

    pub fn matches(&self, answer: &Answer) -> bool {
        answer.nodes.len() == self.count
            && ids_hash(answer.nodes.iter().map(|n| u64::from(n.0))) == self.ids
    }

    /// Admin answers carry raw ids; group answers are masked to ordinals,
    /// so their serialized form is compared instead.
    pub fn matches_wire(&self, who: Who, answer: &RemoteAnswer) -> bool {
        if answer.nodes.len() != self.count {
            return false;
        }
        match who {
            Who::Admin => ids_hash(answer.nodes.iter().copied()) == self.ids,
            Who::Group => xml_hash(&answer.xml) == (self.xml_bytes, self.xml),
        }
    }
}

/// The naive reference: the document parsed with a vocabulary of its
/// own, the view derived and materialized, and every query evaluated by
/// the definitional `smoqe_rxpath::evaluate` — on the document for the
/// admin, on the materialized view (mapped back to source nodes) for the
/// group.
pub struct Oracle {
    vocab: Vocabulary,
    doc: Document,
    view: smoqe_view::MaterializedView,
}

impl Oracle {
    pub fn new(xml: &str) -> Oracle {
        let vocab = Vocabulary::new();
        let dtd = Dtd::parse(hospital::DTD, &vocab).expect("hospital DTD parses");
        let policy =
            smoqe_view::AccessPolicy::parse(dtd, hospital::POLICY).expect("policy S0 parses");
        let spec = smoqe_view::derive(&policy);
        let doc = Document::parse_str(xml, &vocab).expect("generated document parses");
        let view = smoqe_view::materialize(&spec, &doc).expect("view materializes");
        Oracle { vocab, doc, view }
    }

    pub fn answer(&self, query: &PoolQuery) -> Vec<NodeId> {
        let path = smoqe_rxpath::parse_path(&query.text, &self.vocab).expect("pool query parses");
        match query.who {
            Who::Admin => smoqe_rxpath::evaluate(&self.doc, &path).into_vec(),
            Who::Group => {
                let hits = smoqe_rxpath::evaluate(&self.view.doc, &path);
                self.view.origins_of(hits.iter())
            }
        }
    }
}

/// The correctness gate, run before any timing: every pooled query,
/// asked through a session of its principal, must answer exactly the
/// oracle's nodes, and nothing a group receives may contain a `pname`.
/// Returns what each query is expected to answer during the run and a
/// checksum over all of it that must repeat for a seed.
pub fn gate(
    handle: &DocHandle,
    xml: &str,
    pool: &[PoolQuery],
) -> Result<(Vec<Expected>, u64), String> {
    let oracle = Oracle::new(xml);
    let mut expected = Vec::with_capacity(pool.len());
    let mut checksum = Fnv::default();
    for query in pool {
        let session = handle.session(query.who.user());
        let answer = session
            .query_serialized(&query.text)
            .map_err(|e| format!("{:?} {}: {e}", query.who, query.text))?;
        let want = oracle.answer(query);
        if answer.nodes != want {
            return Err(format!(
                "{:?} {}: engine answered {} nodes, the oracle {}",
                query.who,
                query.text,
                answer.nodes.len(),
                want.len()
            ));
        }
        let xml = answer.xml.as_deref().unwrap_or_default();
        if query.who == Who::Group && xml.iter().any(|s| s.contains("<pname")) {
            return Err(format!("group answer to {} leaks a pname", query.text));
        }
        let (xml_bytes, xml) = xml_hash(xml);
        let e = Expected {
            count: want.len(),
            ids: ids_hash(want.iter().map(|n| u64::from(n.0))),
            xml_bytes,
            xml,
        };
        checksum.u64(e.count as u64);
        checksum.u64(e.ids);
        checksum.u64(e.xml);
        expected.push(e);
    }
    Ok((expected, checksum.0))
}

/// Loads the hospital scenario into `engine` under [`DOC`]: DTD,
/// document, policy S0 for `researchers` (the view is derived here) and,
/// with `tax`, the TAX index.
pub fn load_hospital(engine: &Arc<Engine>, xml: &str, tax: bool) -> DocHandle {
    let handle = engine.open_document(DOC);
    handle.load_dtd(hospital::DTD).expect("DTD loads");
    handle.load_document(xml).expect("document loads");
    handle
        .register_policy(hospital::GROUP, hospital::POLICY)
        .expect("policy registers");
    if tax {
        handle.build_tax_index().expect("TAX index builds");
    }
    handle
}

/// One session per principal, indexed by `Who as usize`.
pub fn sessions(handle: &DocHandle) -> [Session; 2] {
    [
        handle.session(Who::Admin.user()),
        handle.session(Who::Group.user()),
    ]
}

/// The order in which one thread walks a pool of `len` queries during
/// lap `lap`: a seeded permutation, so every lap holds every query once.
pub fn lap_order(seed: u64, thread: usize, lap: u64, len: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..len).collect();
    Rng::forked(seed, (thread as u64) << 32 | lap).shuffle(&mut order);
    order
}

/// Walks a pool lap by lap in [`lap_order`].
pub struct LapWalker {
    seed: u64,
    thread: usize,
    len: usize,
    lap: u64,
    order: Vec<usize>,
}

impl LapWalker {
    pub fn new(seed: u64, thread: usize, len: usize) -> LapWalker {
        LapWalker {
            seed,
            thread,
            len,
            lap: 0,
            order: lap_order(seed, thread, 0, len),
        }
    }

    /// The pool index of op number `i`.
    pub fn at(&mut self, i: u64) -> usize {
        let lap = i / self.len as u64;
        if lap != self.lap {
            self.lap = lap;
            self.order = lap_order(self.seed, self.thread, lap, self.len);
        }
        self.order[(i % self.len as u64) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn documents_and_op_orders_repeat_per_seed_and_differ_across_seeds() {
        assert_eq!(hospital_xml(3, 800, 4, None), hospital_xml(3, 800, 4, None));
        assert_ne!(hospital_xml(3, 800, 4, None), hospital_xml(4, 800, 4, None));
        for seed in 1..6 {
            let few = hospital_xml(seed, 800, 2, Some(5));
            assert_eq!(few.matches("<hospital><patient>").count(), 1);
            // Five generated top-level patients and the two unique ones.
            let oracle = Oracle::new(&few);
            assert_eq!(oracle.answer(&q(Who::Admin, "hospital/patient")).len(), 7);
        }
        let walk = |seed| {
            let mut w = LapWalker::new(seed, 1, 13);
            (0..39).map(|i| w.at(i)).collect::<Vec<_>>()
        };
        assert_eq!(walk(3), walk(3));
        assert_ne!(walk(3), walk(4));
        // Every lap holds every query exactly once.
        let mut lap: Vec<usize> = walk(3)[13..26].to_vec();
        lap.sort_unstable();
        assert_eq!(lap, (0..13).collect::<Vec<_>>());
        assert_ne!(fresh_literal(1, 0, 5), fresh_literal(1, 1, 5));
    }

    #[test]
    fn unique_patients_are_visible_point_targets_for_both_principals() {
        let xml = hospital_xml(9, 800, 6, None);
        let oracle = Oracle::new(&xml);
        for query in point_pool(9, 6, 6) {
            let hits = oracle.answer(&query).len();
            // Both medications of the patient for the admin (by name);
            // both of its treatments for the group (by medication).
            assert_eq!(hits, 2, "{}", query.text);
        }
        // The literals are unique: no other patient matches.
        let by_name = q(
            Who::Admin,
            &format!("//patient[pname = '{}']", unique_pname(9, 0)),
        );
        assert_eq!(oracle.answer(&by_name).len(), 1);
    }

    #[test]
    fn the_gate_accepts_the_engine_and_its_checksum_repeats() {
        let xml = hospital_xml(2, 800, 4, None);
        let mut pool = scan_pool();
        pool.extend(point_pool(2, 4, 4));
        let run = || {
            let engine = Engine::with_defaults();
            let handle = load_hospital(&engine, &xml, true);
            gate(&handle, &xml, &pool).expect("gate passes")
        };
        let (expected, checksum) = run();
        assert_eq!(run().1, checksum);
        assert!(expected.iter().any(|e| e.count > 0));
    }
}
