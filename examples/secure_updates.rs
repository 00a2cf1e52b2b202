//! Secure updates: policy-checked writes through security views.
//!
//! Two user groups share one hospital document. The `clinicians` group
//! may see (and therefore write) treatments; the `researchers` group
//! lives behind the paper's restrictive policy. A clinician's update
//! lands; a researcher's write to a hidden node is **denied with exactly
//! the same error as a write to a node that does not exist**, so a denial
//! reveals nothing about what the policy hides. Accepted updates patch
//! the TAX index incrementally and leave concurrent readers on their old
//! snapshot.
//!
//! ```text
//! cargo run --example secure_updates
//! ```

use smoqe::workloads::hospital;
use smoqe::{Engine, EngineError, User};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let engine = Engine::with_defaults();
    let wards = engine.open_document("wards");
    hospital::install_sample(&wards)?; // registers the "researchers" group
    wards.build_tax_index()?;

    // Clinicians see everything except test results.
    wards.register_policy("clinicians", "ann(treatment, test) = N\n")?;

    // --- An admin grows the document. -------------------------------
    let admin = wards.session(User::Admin);
    let report = wards.update(
        "insert <patient><pname>Zoe</pname>\
         <visit><treatment><medication>autism</medication></treatment>\
         <date>2006-07-30</date></visit></patient> into hospital",
    )?;
    println!(
        "admin insert: {} target(s), {} -> {} nodes, TAX patched: {}",
        report.applied, report.nodes_before, report.nodes_after, report.tax_patched
    );
    assert!(report.tax_patched);

    // --- A clinician updates through their view. --------------------
    let clinician = wards.session(User::Group("clinicians".into()));
    let report = clinician.update(
        "replace hospital/patient[pname = 'Zoe']/visit/treatment/medication \
         with <medication>ritalin</medication>",
    )?;
    println!("clinician replace: {} accessible target(s)", report.applied);
    assert_eq!(
        admin
            .query("//patient[pname = 'Zoe']/visit/treatment/medication[text() = 'ritalin']")?
            .len(),
        1,
        "the clinician's write is visible in the source document"
    );

    // --- A researcher's denied write reveals nothing. ---------------
    let researcher = wards.session(User::Group(hospital::GROUP.into()));
    // `pname` exists but is hidden by the policy...
    let hidden = researcher.update("delete //pname").unwrap_err();
    // ...while `allergy-note` does not exist at all.
    let missing = researcher.update("delete //allergy-note").unwrap_err();
    println!("write to a hidden node:       {hidden}");
    println!("write to a missing node:      {missing}");
    assert!(matches!(hidden, EngineError::UpdateDenied));
    assert!(matches!(missing, EngineError::UpdateDenied));
    assert_eq!(
        hidden.to_string(),
        missing.to_string(),
        "denials must not distinguish hidden from non-existent targets"
    );
    assert!(
        !admin.query("//pname")?.is_empty(),
        "denied writes change nothing"
    );

    // --- Researchers can still write inside their view. -------------
    // The view exposes autism patients' treatments; the path is a VIEW
    // path (no `visit` — that type is hidden and skipped over).
    let report = researcher.update(
        "replace hospital/patient/treatment/medication with <medication>autism</medication>",
    )?;
    println!(
        "researcher replace: {} accessible target(s) (only nodes their view exposes)",
        report.applied
    );

    // Cached plans survived the writes (a plan depends on the query and
    // the view, not on the document), and fresh queries see the updated
    // snapshot.
    println!("cache after updates: {:?}", engine.cache_metrics());
    println!("secure_updates: OK");
    Ok(())
}
