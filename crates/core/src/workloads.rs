//! Standard workloads: the paper's hospital scenario plus a second
//! recursive schema, shared by examples, integration tests and the
//! benchmark harness.
//!
//! The hospital data itself was never published (2006 demo); documents are
//! produced by the seeded generator with realistic value pools — the
//! substitution documented in DESIGN.md §4.

use crate::catalog::DocHandle;
use crate::error::EngineError;
use smoqe_xml::{generate, Document, Dtd, GeneratorConfig, Vocabulary};

/// The hospital scenario of Fig. 3.
pub mod hospital {
    use super::*;

    /// The group name [`install_sample`] registers.
    pub const GROUP: &str = "researchers";

    /// Loads the DTD and the handwritten sample into `doc` and registers
    /// the [`POLICY`] for the [`GROUP`] user group — the one-call setup
    /// for catalog-based tests, examples and benches.
    pub fn install_sample(doc: &DocHandle) -> Result<(), EngineError> {
        doc.load_dtd(DTD)?;
        doc.load_document(SAMPLE_DOCUMENT)?;
        doc.register_policy(GROUP, POLICY)
    }

    /// The document DTD (Fig. 3(a)); also exported as
    /// [`smoqe_xml::HOSPITAL_DTD`].
    pub const DTD: &str = smoqe_xml::HOSPITAL_DTD;

    /// The access-control policy S0 (Fig. 3(b)); also exported as
    /// [`smoqe_view::HOSPITAL_POLICY`].
    pub const POLICY: &str = smoqe_view::HOSPITAL_POLICY;

    /// A small document in the spirit of the running example: three
    /// top-level patients (two with autism medication), one recursive
    /// parent record.
    pub const SAMPLE_DOCUMENT: &str = "<hospital>\
        <patient><pname>Ann</pname>\
          <visit><treatment><medication>autism</medication></treatment><date>2006-01-11</date></visit>\
          <visit><treatment><test>blood</test></treatment><date>2006-02-07</date></visit>\
          <parent><patient><pname>Pat</pname>\
            <visit><treatment><medication>flu</medication></treatment><date>1980-03-02</date></visit>\
          </patient></parent>\
        </patient>\
        <patient><pname>Bob</pname>\
          <visit><treatment><medication>headache</medication></treatment><date>2006-03-14</date></visit>\
        </patient>\
        <patient><pname>Cal</pname>\
          <visit><treatment><medication>autism</medication></treatment><date>2006-04-21</date></visit>\
          <visit><treatment><medication>headache</medication></treatment><date>2006-05-02</date></visit>\
        </patient>\
      </hospital>";

    /// The paper's example query Q0 (§3): patients with a test reachable
    /// through the parent chain *and* a headache medication; select their
    /// names.
    pub const Q0: &str = "hospital/patient[(parent/patient)*/visit/treatment/test and \
                          visit/treatment[medication/text() = 'headache']]/pname";

    /// Benchmark queries over the *document* (admin side), by increasing
    /// sophistication: `(name, query)`.
    pub const DOC_QUERIES: &[(&str, &str)] = &[
        ("chain", "hospital/patient/pname"),
        ("descendant", "//medication"),
        (
            "predicate",
            "hospital/patient[visit/treatment/medication = 'autism']/pname",
        ),
        ("closure", "hospital/patient/(parent/patient)*/pname"),
        ("negation", "//treatment[not(test)]/medication"),
        ("q0", Q0),
    ];

    /// Benchmark queries over the *view* (user side): `(name, query)`.
    pub const VIEW_QUERIES: &[(&str, &str)] = &[
        ("patients", "hospital/patient"),
        ("medications", "hospital/patient/treatment/medication"),
        ("descendant", "//medication"),
        ("closure", "hospital/patient/(parent/patient)*/treatment"),
        (
            "predicate",
            "hospital/patient[treatment/medication = 'autism']",
        ),
        ("negation", "//patient[not(parent)]/treatment/medication"),
    ];

    /// Parses the hospital DTD into `vocab`.
    pub fn dtd(vocab: &Vocabulary) -> Dtd {
        Dtd::parse(DTD, vocab).expect("hospital DTD parses")
    }

    /// A generator configuration with realistic value pools. Roughly
    /// `target_nodes` nodes; deterministic per seed.
    pub fn generator_config(vocab: &Vocabulary, seed: u64, target_nodes: usize) -> GeneratorConfig {
        let mut config = GeneratorConfig {
            star_continue: 0.7,
            max_repeat: 6,
            max_depth: 14,
            ..GeneratorConfig::sized(seed, target_nodes)
        };
        config = config
            .with_text_pool(
                vocab.intern("pname"),
                ["Ann", "Bob", "Cal", "Dan", "Eve", "Fay", "Gus", "Hal"]
                    .map(String::from)
                    .to_vec(),
            )
            .with_text_pool(
                vocab.intern("medication"),
                ["autism", "headache", "flu", "fever", "allergy"]
                    .map(String::from)
                    .to_vec(),
            )
            .with_text_pool(
                vocab.intern("test"),
                ["blood", "x-ray", "mri", "biopsy"]
                    .map(String::from)
                    .to_vec(),
            )
            .with_text_pool(
                vocab.intern("date"),
                ["2006-01-11", "2006-02-07", "2006-03-14", "2006-04-21"]
                    .map(String::from)
                    .to_vec(),
            );
        config
    }

    /// Generates a conforming hospital document of roughly `target_nodes`
    /// nodes.
    pub fn generate_document(vocab: &Vocabulary, seed: u64, target_nodes: usize) -> Document {
        let dtd = dtd(vocab);
        let config = generator_config(vocab, seed, target_nodes);
        generate(&dtd, &config).expect("hospital DTD generates")
    }
}

/// A second recursive workload: a company org chart with nested
/// departments, used to check that nothing is hospital-specific.
pub mod org {
    use super::*;

    /// The group name [`install_sample`] registers.
    pub const GROUP: &str = "staff";

    /// Loads the DTD and the handwritten sample into `doc` and registers
    /// the [`POLICY`] for the [`GROUP`] user group.
    pub fn install_sample(doc: &DocHandle) -> Result<(), EngineError> {
        doc.load_dtd(DTD)?;
        doc.load_document(SAMPLE_DOCUMENT)?;
        doc.register_policy(GROUP, POLICY)
    }

    /// Recursive org-chart DTD (departments nest arbitrarily).
    pub const DTD: &str = r#"
<!ELEMENT company (dept*)>
<!ELEMENT dept (dname, emp*, dept*)>
<!ELEMENT dname (#PCDATA)>
<!ELEMENT emp (ename, salary, review?)>
<!ELEMENT ename (#PCDATA)>
<!ELEMENT salary (#PCDATA)>
<!ELEMENT review (#PCDATA)>
"#;

    /// Policy: salaries are confidential; reviews only when marked
    /// public; names and structure visible.
    pub const POLICY: &str = r#"
ann(emp, salary) = N
ann(emp, review) = [text() = 'public']
"#;

    /// A small handwritten org chart.
    pub const SAMPLE_DOCUMENT: &str = "<company>\
        <dept><dname>rnd</dname>\
          <emp><ename>ada</ename><salary>90</salary><review>public</review></emp>\
          <emp><ename>bert</ename><salary>80</salary><review>private</review></emp>\
          <dept><dname>db</dname>\
            <emp><ename>cleo</ename><salary>95</salary></emp>\
          </dept>\
        </dept>\
        <dept><dname>sales</dname>\
          <emp><ename>dre</ename><salary>70</salary><review>public</review></emp>\
        </dept>\
      </company>";

    /// Benchmark queries over the org view.
    pub const VIEW_QUERIES: &[(&str, &str)] = &[
        ("names", "//ename"),
        ("nested", "company/dept/(dept)*/emp/ename"),
        ("reviewed", "//emp[review]/ename"),
        ("unreviewed", "//emp[not(review)]/ename"),
    ];

    /// Parses the org DTD into `vocab`.
    pub fn dtd(vocab: &Vocabulary) -> Dtd {
        Dtd::parse(DTD, vocab).expect("org DTD parses")
    }

    /// Generator configuration with value pools.
    pub fn generator_config(vocab: &Vocabulary, seed: u64, target_nodes: usize) -> GeneratorConfig {
        GeneratorConfig {
            star_continue: 0.65,
            max_repeat: 5,
            max_depth: 12,
            ..GeneratorConfig::sized(seed, target_nodes)
        }
        .with_text_pool(
            vocab.intern("ename"),
            ["ada", "bert", "cleo", "dre", "eli"]
                .map(String::from)
                .to_vec(),
        )
        .with_text_pool(
            vocab.intern("dname"),
            ["rnd", "db", "sales", "hr"].map(String::from).to_vec(),
        )
        .with_text_pool(
            vocab.intern("salary"),
            ["70", "80", "90", "95"].map(String::from).to_vec(),
        )
        .with_text_pool(
            vocab.intern("review"),
            ["public", "private"].map(String::from).to_vec(),
        )
    }

    /// Generates a conforming org document.
    pub fn generate_document(vocab: &Vocabulary, seed: u64, target_nodes: usize) -> Document {
        let dtd = dtd(vocab);
        let config = generator_config(vocab, seed, target_nodes);
        generate(&dtd, &config).expect("org DTD generates")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smoqe_view::{derive, AccessPolicy};

    #[test]
    fn hospital_sample_is_valid() {
        let vocab = Vocabulary::new();
        let dtd = hospital::dtd(&vocab);
        let doc = Document::parse_str(hospital::SAMPLE_DOCUMENT, &vocab).unwrap();
        dtd.validate(&doc).unwrap();
    }

    #[test]
    fn org_sample_is_valid_and_policy_derives() {
        let vocab = Vocabulary::new();
        let dtd = org::dtd(&vocab);
        let doc = Document::parse_str(org::SAMPLE_DOCUMENT, &vocab).unwrap();
        dtd.validate(&doc).unwrap();
        let policy = AccessPolicy::parse(dtd.clone(), org::POLICY).unwrap();
        let spec = derive(&policy);
        spec.validate(&dtd).unwrap();
        // salary is hidden, review conditionally visible.
        let emp = vocab.lookup("emp").unwrap();
        let salary = vocab.lookup("salary").unwrap();
        let review = vocab.lookup("review").unwrap();
        assert!(spec.sigma(emp, salary).is_none());
        assert!(spec.sigma(emp, review).is_some());
    }

    #[test]
    fn generated_workloads_validate() {
        let vocab = Vocabulary::new();
        let dtd = hospital::dtd(&vocab);
        let doc = hospital::generate_document(&vocab, 3, 3_000);
        dtd.validate(&doc).unwrap();
        assert!(doc.node_count() >= 3_000);

        let vocab2 = Vocabulary::new();
        let dtd2 = org::dtd(&vocab2);
        let doc2 = org::generate_document(&vocab2, 3, 3_000);
        dtd2.validate(&doc2).unwrap();
    }

    /// 64-bit FNV-1a: a digest that does not depend on the toolchain.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    #[test]
    fn generated_hospital_serialization_is_pinned() {
        // The benchmark builds every document from this text (at depth 8)
        // and splits it on `</patient><patient>`: a change to how built
        // documents serialize would change every workload's data.
        let vocab = Vocabulary::new();
        let dtd = hospital::dtd(&vocab);
        let mut config = hospital::generator_config(&vocab, 2006, 100_000);
        let mut digests = Vec::new();
        for depth in [config.max_depth, 8] {
            config.max_depth = depth;
            let xml = generate(&dtd, &config).unwrap().to_xml();
            digests.push((xml.len(), fnv1a(xml.as_bytes())));
        }
        assert_eq!(
            digests,
            vec![
                (1_392_667, 9_528_954_911_221_246_866),
                (1_385_376, 4_692_207_709_050_759_634)
            ]
        );
    }

    #[test]
    fn all_workload_queries_parse() {
        let vocab = Vocabulary::new();
        hospital::dtd(&vocab);
        for (_, q) in hospital::DOC_QUERIES.iter().chain(hospital::VIEW_QUERIES) {
            smoqe_rxpath::parse_path(q, &vocab).unwrap();
        }
        let vocab2 = Vocabulary::new();
        org::dtd(&vocab2);
        for (_, q) in org::VIEW_QUERIES {
            smoqe_rxpath::parse_path(q, &vocab2).unwrap();
        }
    }

    #[test]
    fn q0_has_answers_on_suitable_data() {
        let vocab = Vocabulary::new();
        hospital::dtd(&vocab);
        // Build a document where Q0 matches: patient with ancestor-chain
        // test and own headache medication.
        let doc = Document::parse_str(
            "<hospital><patient><pname>Zoe</pname>\
             <visit><treatment><medication>headache</medication></treatment><date>d</date></visit>\
             <parent><patient><pname>Yan</pname>\
               <visit><treatment><test>blood</test></treatment><date>d</date></visit>\
             </patient></parent>\
             </patient></hospital>",
            &vocab,
        )
        .unwrap();
        let q0 = smoqe_rxpath::parse_path(hospital::Q0, &vocab).unwrap();
        let res = smoqe_rxpath::evaluate(&doc, &q0);
        assert_eq!(res.len(), 1);
        assert_eq!(doc.string_value(res.iter().next().unwrap()), "Zoe");
    }
}
