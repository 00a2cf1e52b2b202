//! The allocation budget of a write. One statement splices each table of
//! the document once and patches each table of the TAX index once,
//! whatever its number of targets, and every table is allocated at its
//! final size — so a write allocates a constant, independent of the
//! document's size and of how many targets the statement has.
//! `apply_update` with an index runs single-target inserts, deletes and
//! replaces over the `view_scan` body at 50 000 and 100 000 nodes, and one
//! delete at 1, 8 and 64 targets. (Applied target by target, a 64-target
//! delete makes about 64 times the allocations of a 1-target one.)

use smoqe::update::{apply_update, parse_update};
use smoqe_bench::{allocations, view_scan_document, CountingAlloc};
use smoqe_tax::TaxIndex;
use smoqe_xml::{Document, Vocabulary};

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

const VISIT: &str = "<visit><treatment><test>mri</test></treatment><date>d</date></visit>";

/// The allocations `apply_update` makes for `statement` at its first
/// `targets` targets in `doc`.
fn write_allocations(doc: &Document, tax: &TaxIndex, statement: &str, targets: usize) -> u64 {
    let update = parse_update(statement, doc.vocabulary()).expect("the statement parses");
    let mut found = smoqe_rxpath::evaluate(doc, &update.target).into_vec();
    assert!(
        found.len() >= targets,
        "`{statement}` has {} targets",
        found.len()
    );
    found.truncate(targets);
    let before = allocations();
    let written = apply_update(doc, &update, &found, Some(tax)).expect("the statement applies");
    let made = allocations() - before;
    assert_eq!(written.2.len(), targets, "one span per target");
    made
}

fn document(nodes: usize) -> (Document, TaxIndex) {
    let doc = Document::parse_str(&view_scan_document(nodes), &Vocabulary::new()).unwrap();
    let tax = TaxIndex::build(&doc);
    (doc, tax)
}

#[test]
fn a_write_allocates_a_constant_whatever_the_document_and_the_targets() {
    let single = [
        format!("insert {VISIT} after hospital/patient/pname"),
        "delete hospital/patient/visit".to_string(),
        format!("replace hospital/patient/visit with {VISIT}"),
    ];
    let sizes = [document(50_000), document(100_000)];
    for statement in &single {
        let [small, large] = sizes
            .each_ref()
            .map(|(doc, tax)| write_allocations(doc, tax, statement, 1));
        assert!(
            small.abs_diff(large) <= 8,
            "`{statement}`: {small} allocations at 50k nodes, {large} at 100k"
        );
    }
    let (doc, tax) = &sizes[1];
    let delete = "delete hospital/patient/visit";
    let by_targets = [1, 8, 64].map(|k| write_allocations(doc, tax, delete, k));
    let (fewest, most) = (
        by_targets.iter().min().unwrap(),
        by_targets.iter().max().unwrap(),
    );
    assert!(
        most - fewest <= 8,
        "`{delete}` at 1, 8 and 64 targets: {by_targets:?} allocations"
    );
}
