//! Serialized answers, byte for byte, against their oracles.
//!
//! The engine writes an admin's answer straight from the document's
//! tables and a group's answer through the view's compiled σ, without
//! building anything. Each answer must equal what the definitions give:
//!
//! * admin: the raw subtree as `XmlWriter` events write it (built here,
//!   element by element, from the document);
//! * group: the buffer of `materialize_fragment` — the view image of the
//!   answer node, built with naive σ.
//!
//! Documents are parsed from noisy text — entity and character
//! references, CDATA, comments and processing instructions, both
//! attribute quote styles, `>` in text, whitespace-only runs, `<a></a>`
//! beside `<a/>` — and then edited by random writes, which leave dirty
//! texts and merged text runs behind. Every answer is checked on a DOM
//! engine with a TAX index, on one without, and on a stream engine, alone
//! and through a serialized batch. A second schema has mixed content
//! under a view that hides an element child of a text-bearing view type,
//! so a view node's text joins pieces split around a hidden child — once
//! with the view written by hand, once derived from a policy.

use proptest::prelude::*;
use smoqe::workloads::hospital;
use smoqe::{Engine, EngineConfig, QueryRequest, User};
use smoqe_view::materialize_fragment;
use smoqe_xml::serialize::XmlWriter;
use smoqe_xml::{Document, NodeId};
use std::sync::Arc;

/// SplitMix64, so a case is a pure function of its seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a>(&mut self, from: &[&'a str]) -> &'a str {
        from[self.below(from.len())]
    }
}

/// Whitespace-only runs between elements (or nothing).
const GAPS: &[&str] = &["", "", "\n  ", " ", "\t\n", "<!-- gap -->", "<?pi gap?>"];

/// Texts as they appear in the source: several decode to `autism`, so S0
/// shows patients whose medication text is dirty.
const MEDICATIONS: &[&str] = &[
    "autism",
    "autism",
    "aut&#105;sm",
    "&#x61;utism",
    "<![CDATA[autism]]>",
    "au<!-- c -->tism",
    "aut<?pi x?>ism",
    "flu &amp; fever",
    "a > b",
    "<![CDATA[x < y & z]]>",
    "  ",
    "",
];

const NAMES: &[&str] = &[
    "Ann",
    "B&amp;B",
    "&lt;anon&gt;",
    "x > y",
    "<![CDATA[<raw>]]>",
    " \t ",
    "Zo&#235;",
    "",
];

/// A noisy hospital document conforming to the hospital DTD.
fn noisy_hospital(rng: &mut Rng) -> String {
    let mut out = String::from("<?xml version=\"1.0\"?>\n<!-- prolog -->\n<hospital>");
    for _ in 0..1 + rng.below(5) {
        patient(rng, &mut out, 0);
        out.push_str(rng.pick(GAPS));
    }
    out.push_str("</hospital>");
    out
}

fn patient(rng: &mut Rng, out: &mut String, depth: usize) {
    out.push_str(match rng.below(4) {
        0 => "<patient>",
        1 => "<patient id='p1'>",
        2 => "<patient id=\"a &amp; b\" note='say \"hi\" &lt;here&gt;'>",
        _ => "<patient  id = \"q\" >",
    });
    out.push_str(rng.pick(GAPS));
    out.push_str(&format!("<pname>{}</pname>", rng.pick(NAMES)));
    for _ in 0..rng.below(4) {
        out.push_str(rng.pick(GAPS));
        out.push_str("<visit><treatment>");
        match rng.below(3) {
            0 => out.push_str(&format!("<test>{}</test>", rng.pick(NAMES))),
            _ => out.push_str(&format!(
                "<medication>{}</medication>",
                rng.pick(MEDICATIONS)
            )),
        }
        out.push_str("</treatment>");
        out.push_str(rng.pick(&["<date/>", "<date></date>", "<date>2006&#45;01</date>"]));
        out.push_str("</visit>");
    }
    for _ in 0..if depth < 3 { rng.below(3) } else { 0 } {
        out.push_str(rng.pick(GAPS));
        out.push_str("<parent>");
        patient(rng, out, depth + 1);
        out.push_str("</parent>");
    }
    out.push_str(rng.pick(GAPS));
    out.push_str("</patient>");
}

/// Mixed content: a `book` holds text around `note`s and `price`s.
const LIBRARY_DTD: &str = "<!ELEMENT lib (book*)>\n\
    <!ELEMENT book (#PCDATA | note | price)*>\n\
    <!ELEMENT note (#PCDATA)>\n\
    <!ELEMENT price (#PCDATA)>\n";

/// A view that hides `price`, an element child of the text-bearing view
/// type `book`, and every book priced 9.
const LIBRARY_VIEW: &str = "<!ELEMENT lib (book*)>\n\
    <!ELEMENT book (#PCDATA | note)*>\n\
    <!ELEMENT note (#PCDATA)>\n\
    sigma(lib, book) = book[not(price = '9')]\n\
    sigma(book, note) = note\n";

/// The policy whose derived view hides `price` alone: `book` stays a
/// mixed type, its text kept beside its `note`s.
const LIBRARY_POLICY: &str = "ann(book, price) = N\n";

const PIECES: &[&str] = &[
    "t",
    "a &amp; b",
    " ",
    "\n",
    "x > y",
    "<![CDATA[<c>]]>",
    "<!-- c -->",
    "<?p i?>",
    "&#x263A;",
];

fn noisy_library(rng: &mut Rng) -> String {
    let mut out = String::from("<lib>");
    for _ in 0..rng.below(5) {
        out.push_str(rng.pick(GAPS));
        out.push_str(rng.pick(&["<book>", "<book lang='en'>"]));
        for _ in 0..rng.below(6) {
            match rng.below(4) {
                0 => out.push_str(&format!("<note>{}</note>", rng.pick(PIECES))),
                1 => out.push_str(rng.pick(&["<price>9</price>", "<price/>", "<price></price>"])),
                _ => out.push_str(rng.pick(PIECES)),
            }
        }
        out.push_str("</book>");
    }
    out.push_str("</lib>");
    out
}

/// Random admin writes on the library: deleting a hidden `price` between
/// two text pieces merges them; inserted fragments carry entities.
fn library_writes(rng: &mut Rng) -> Vec<&'static str> {
    const WRITES: &[&str] = &[
        "delete //price",
        "delete lib/book/note[. = 't']",
        "insert <note>n &amp; m</note> into lib/book",
        "insert <price>1 &gt; 0</price> before //note",
        "insert <note>&lt;new&gt;</note> after lib/book/price",
        "replace lib/book/note[. = 'a & b'] with <price>p</price>",
        "insert <book>fresh <note>x</note> text</book> into lib",
    ];
    (0..rng.below(4)).map(|_| rng.pick(WRITES)).collect()
}

/// Random admin writes on the hospital document.
fn hospital_writes(rng: &mut Rng) -> Vec<&'static str> {
    const WRITES: &[&str] = &[
        "replace //test with <medication>a &gt; b</medication>",
        "insert <visit><treatment><medication>aut&#105;sm</medication></treatment><date/></visit> after hospital/patient/pname",
        "replace //medication[. = 'flu & fever'] with <medication>autism</medication>",
        "delete hospital/patient/parent",
        "insert <patient><pname>N &amp; M</pname><visit><treatment><medication>autism</medication></treatment><date>d</date></visit></patient> into hospital",
    ];
    (0..rng.below(4)).map(|_| rng.pick(WRITES)).collect()
}

/// The admin oracle: the subtree as `XmlWriter` events write it.
fn reference(doc: &Document, node: NodeId) -> String {
    fn events(doc: &Document, n: NodeId, w: &mut XmlWriter<&mut Vec<u8>>) {
        match doc.label(n) {
            Some(label) => {
                w.start_element(doc.label_name(label)).unwrap();
                for (name, value) in doc.attributes(n) {
                    w.attribute(name, value).unwrap();
                }
                for child in doc.children(n) {
                    events(doc, child, w);
                }
                w.end_element().unwrap();
            }
            None => w.text(doc.text(n).unwrap()).unwrap(),
        }
    }
    let mut out = Vec::new();
    events(doc, node, &mut XmlWriter::new(&mut out));
    String::from_utf8(out).unwrap()
}

/// How a schema's group gets its view.
enum View {
    Policy(&'static str),
    Spec(&'static str),
}

struct Schema {
    dtd: &'static str,
    view: View,
    admin: &'static [&'static str],
    group: &'static [&'static str],
}

const HOSPITAL: Schema = Schema {
    dtd: hospital::DTD,
    view: View::Policy(hospital::POLICY),
    admin: &[
        "hospital",
        "//patient",
        "//pname",
        "//medication",
        "//visit",
        "//date",
    ],
    group: &[
        "hospital",
        "hospital/patient",
        "//treatment",
        "//medication",
        "hospital/patient/(parent/patient)*/treatment",
        "hospital/patient[treatment/medication = 'autism']",
    ],
};

const LIBRARY: Schema = Schema {
    dtd: LIBRARY_DTD,
    view: View::Spec(LIBRARY_VIEW),
    admin: &["lib", "//book", "//note", "//price"],
    group: &["lib", "lib/book", "//note", "lib/book[note]"],
};

const LIBRARY_DERIVED: Schema = Schema {
    dtd: LIBRARY_DTD,
    view: View::Policy(LIBRARY_POLICY),
    admin: LIBRARY.admin,
    group: LIBRARY.group,
};

/// Loads `xml` into three engines — DOM with a TAX index, DOM without,
/// stream — applies `writes` to each, and checks every serialized answer
/// of `schema`'s queries against its oracle.
fn check(schema: &Schema, xml: &str, writes: &[&str]) -> Coverage {
    let mut seen = Coverage::default();
    let engines: Vec<(&str, Arc<Engine>, Vec<String>)> = [
        ("dom+tax", EngineConfig::default(), true),
        ("dom", EngineConfig::default(), false),
        ("stream", EngineConfig::streaming(), false),
    ]
    .into_iter()
    .map(|(name, config, tax)| {
        let engine = Engine::new(config);
        engine.load_dtd(schema.dtd).unwrap();
        engine.load_document(xml).unwrap();
        match schema.view {
            View::Policy(policy) => engine.register_policy("g", policy).unwrap(),
            View::Spec(spec) => engine.register_view_spec("g", spec).unwrap(),
        }
        if tax {
            engine.build_tax_index().unwrap();
        }
        // A write may find no target or break the DTD; it must do so on
        // every engine alike.
        let outcomes: Vec<String> = writes
            .iter()
            .map(|write| match engine.update(write) {
                Ok(report) => format!("applied {}", report.applied),
                Err(e) => e.to_string(),
            })
            .collect();
        (name, engine, outcomes)
    })
    .collect();
    for (name, _, outcomes) in &engines {
        assert_eq!(*outcomes, engines[0].2, "{name}: the writes {writes:?}");
    }
    seen.writes_applied = engines[0]
        .2
        .iter()
        .filter(|o| o.starts_with("applied"))
        .count();
    for (name, engine, _) in &engines {
        let doc = engine.document().unwrap();
        let spec = engine.view("g").unwrap();
        for (user, queries) in [
            (User::Admin, schema.admin),
            (User::Group("g".into()), schema.group),
        ] {
            let oracle = |n: NodeId| match user {
                User::Admin => reference(&doc, n),
                User::Group(_) => materialize_fragment(&spec, &doc, n)
                    .unwrap()
                    .doc
                    .raw_source()
                    .to_string(),
            };
            let session = engine.session(user.clone());
            let batch = session
                .run(QueryRequest {
                    serialize: true,
                    ..QueryRequest::batch(queries)
                })
                .unwrap();
            for (query, batched) in queries.iter().zip(&batch.answers) {
                let alone = session.query_serialized(query).unwrap();
                assert_eq!(alone.nodes, batched.nodes, "{name}: `{query}`");
                for answer in [&alone, batched] {
                    let xml = answer.xml.as_ref().expect("serialized");
                    assert_eq!(xml.len(), answer.nodes.len(), "{name}: `{query}`");
                    for (&n, text) in answer.nodes.iter().zip(xml) {
                        match user {
                            User::Admin => seen.admin_answers += 1,
                            User::Group(_) => {
                                seen.group_answers += 1;
                                seen.group_escapes += usize::from(text.contains('&'));
                                seen.group_hidden +=
                                    usize::from(reference(&doc, n).len() > text.len());
                                let pieces = doc.children(n).filter(|&c| doc.text(c).is_some());
                                seen.group_split_text += usize::from(pieces.count() > 1);
                            }
                        }
                        assert_eq!(
                            *text,
                            oracle(n),
                            "{name}: `{query}` as {user:?}, answer {n:?}, after {writes:?}"
                        );
                    }
                }
            }
        }
    }
    seen
}

/// What a run of [`check`] exercised.
#[derive(Debug, Default)]
struct Coverage {
    writes_applied: usize,
    admin_answers: usize,
    group_answers: usize,
    /// Group answers carrying an escaped character.
    group_escapes: usize,
    /// Group answers shorter than their raw subtree: something hidden.
    group_hidden: usize,
    /// Group answers whose node's direct text is split around children.
    group_split_text: usize,
}

impl Coverage {
    fn add(&mut self, other: Coverage) {
        self.writes_applied += other.writes_applied;
        self.admin_answers += other.admin_answers;
        self.group_answers += other.group_answers;
        self.group_escapes += other.group_escapes;
        self.group_hidden += other.group_hidden;
        self.group_split_text += other.group_split_text;
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 40, ..ProptestConfig::default() })]

    #[test]
    fn hospital_answers_equal_their_oracles(seed in 0u64..1 << 40) {
        let mut rng = Rng(seed);
        let xml = noisy_hospital(&mut rng);
        let writes = hospital_writes(&mut rng);
        check(&HOSPITAL, &xml, &writes);
    }

    #[test]
    fn mixed_content_answers_equal_their_oracles(seed in 0u64..1 << 40) {
        let mut rng = Rng(seed);
        let xml = noisy_library(&mut rng);
        let writes = library_writes(&mut rng);
        check(&LIBRARY, &xml, &writes);
    }

    #[test]
    fn derived_mixed_content_answers_equal_their_oracles(seed in 0u64..1 << 40) {
        let mut rng = Rng(seed);
        let xml = noisy_library(&mut rng);
        let writes = library_writes(&mut rng);
        check(&LIBRARY_DERIVED, &xml, &writes);
    }
}

/// The shapes the random documents draw from, each on its own, so a
/// failure names the shape.
#[test]
fn each_noisy_shape_renders_exactly() {
    let autism = "<visit><treatment><medication>autism</medication></treatment><date/></visit>";
    for patient in [
        format!("<patient id='1' k=\"a &amp; &quot;b&quot;\"><pname>x &gt; y</pname>{autism}</patient>"),
        format!("<patient><pname><![CDATA[<&>]]></pname>{autism}<parent><patient><pname/></patient></parent></patient>"),
        format!("<patient><pname>a<!--c-->b<?p?>c</pname>{autism}<parent><patient><pname>p</pname>{autism}</patient></parent></patient>"),
        "<patient><pname/><visit><treatment><medication>aut&#105;sm</medication></treatment><date></date></visit></patient>".to_string(),
        format!("<patient>\n  <pname> </pname>\n  {autism}\n</patient>"),
    ] {
        check(&HOSPITAL, &format!("<hospital>{patient}</hospital>"), &[]);
    }
    for book in [
        "<book>a<price>1</price>b<note>n</note>c</book>",
        "<book>x &gt; y<price/>&#65;<note/></book>",
        "<book> <price>1</price> </book>",
        "<book><price>1</price></book>",
        "<book></book>",
    ] {
        for schema in [&LIBRARY, &LIBRARY_DERIVED] {
            check(schema, &format!("<lib>{book}</lib>"), &[]);
            check(schema, &format!("<lib>{book}</lib>"), &["delete //price"]);
        }
    }
}

/// The derived view of a mixed type keeps the type's text: hiding
/// `price` hides the prices, not the words around them (a view node's
/// text is its direct text joined, ahead of its view children).
#[test]
fn a_derived_view_keeps_mixed_text() {
    let engine = Engine::with_defaults();
    engine.load_dtd(LIBRARY_DTD).unwrap();
    engine
        .load_document("<lib><book>a<price>9</price>b<note>n</note>c</book></lib>")
        .unwrap();
    engine.register_policy("g", LIBRARY_POLICY).unwrap();
    let answer = engine
        .session(User::Group("g".into()))
        .query_serialized("lib/book")
        .unwrap();
    assert_eq!(
        answer.xml.unwrap(),
        ["<book>abc<note>n</note></book>".to_string()]
    );
}

/// The random cases reach what they are meant to: writes that apply, and
/// group answers with escapes and with hidden parts, on both schemas —
/// and, on the library, text split around children.
#[test]
fn random_cases_cover_writes_escapes_and_hidden_children() {
    for (schema, document, writes) in [
        (
            &HOSPITAL,
            noisy_hospital as fn(&mut Rng) -> String,
            hospital_writes as fn(&mut Rng) -> Vec<&'static str>,
        ),
        (&LIBRARY, noisy_library, library_writes),
        (&LIBRARY_DERIVED, noisy_library, library_writes),
    ] {
        let mut total = Coverage::default();
        for seed in 0..24 {
            let mut rng = Rng(seed);
            let xml = document(&mut rng);
            let writes = writes(&mut rng);
            total.add(check(schema, &xml, &writes));
        }
        assert!(total.writes_applied >= 8, "{total:?}");
        assert!(total.admin_answers >= 100, "{total:?}");
        assert!(total.group_answers >= 50, "{total:?}");
        assert!(total.group_escapes >= 5, "{total:?}");
        assert!(total.group_hidden >= 20, "{total:?}");
        if schema.dtd == LIBRARY_DTD {
            assert!(total.group_split_text >= 20, "{total:?}");
        }
    }
}
