//! A second domain: an org chart where salaries are confidential and
//! reviews are visible only when marked public. Demonstrates that the
//! machinery is not hospital-specific, and shows both engine modes.
//!
//! ```text
//! cargo run --example org_chart
//! ```

use smoqe::workloads::org;
use smoqe::{DocumentMode, Engine, EngineConfig, User};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let engine = Engine::with_defaults();
    let company = engine.open_document("company");
    org::install_sample(&company)?;

    println!("=== derived view for group '{}' ===", org::GROUP);
    println!("{}", company.view(org::GROUP)?.to_spec_string());

    let staff = company.session(User::Group(org::GROUP.into()));
    let doc = company.document()?;

    println!(
        "salaries visible to staff: {}",
        staff.query("//salary")?.len()
    );
    let reviews = staff.query("//review")?;
    println!("reviews visible to staff ({}):", reviews.len());
    for xml in reviews.serialize_with(&doc) {
        println!("  {xml}");
    }
    let names = staff.query("company/dept/(dept)*/emp/ename")?;
    println!("employee names at any department depth ({}):", names.len());
    for xml in names.serialize_with(&doc) {
        println!("  {xml}");
    }

    // The same, in streaming mode.
    let streaming = Engine::new(EngineConfig {
        mode: DocumentMode::Stream,
        ..EngineConfig::default()
    });
    let stream_doc = streaming.open_document("company");
    org::install_sample(&stream_doc)?;
    let s = stream_doc.session(User::Group(org::GROUP.into()));
    let streamed = s.query_xml("//emp[review]/ename")?;
    println!("streaming mode, employees with visible reviews: {streamed:?}");
    Ok(())
}
