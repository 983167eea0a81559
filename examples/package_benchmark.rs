//! The full suite-creation pipeline of Fig. 1 for one benchmark:
//! select → prepare (platform + JUBE workflow) → execute & verify →
//! describe → package with integrity hashes — ending with the 11-point
//! readiness checklist of §III-E.
//!
//! Run with: `cargo run --release --example package_benchmark`

use jubench::core::{Checklist, ChecklistItem};
use jubench::jube::step::output1;
use jubench::jube::{Archive, Platform};
use jubench::prelude::*;
use jubench::scaling::describe;

fn main() {
    let id = BenchmarkId::NekRs;
    let mut checklist = Checklist::new();
    checklist.mark(id, ChecklistItem::SourceCodeAvailable);
    checklist.mark(id, ChecklistItem::LicenseClarified);
    checklist.mark(id, ChecklistItem::BuildRecipe);
    checklist.mark(id, ChecklistItem::InputDataPrepared);

    // ---- prepare: platform-inherited JUBE workflow ----------------------
    let mut wf = Workflow::on_platform(&Platform::juwels_booster());
    wf.params.set("nodes", "8");
    wf.params.set("script", "nekrs.job");
    wf.add_step(Step::new("execute", |ctx| {
        let nodes: u32 = ctx.param_as("nodes").ok_or("missing nodes")?;
        let out = jubench::apps_cfd::NekRs
            .run(&RunConfig::test(nodes))
            .map_err(|e| e.to_string())?;
        let mut o = output1("fom_s", format!("{:.4}", out.virtual_time_s));
        o.insert("verified".into(), out.verification.passed().to_string());
        o.insert(
            "submit".into(),
            ctx.param("submit_cmd").unwrap_or("-").to_string(),
        );
        Ok(o)
    }));
    checklist.mark(id, ChecklistItem::JubeIntegration);
    checklist.mark(id, ChecklistItem::ExecutionRules);

    // ---- execute & verify ------------------------------------------------
    let results = wf.execute(&[]).expect("workflow");
    let fom = results[0].value("fom_s").unwrap().to_string();
    assert_eq!(results[0].value("verified"), Some("true"));
    checklist.mark(id, ChecklistItem::VerificationDefined);
    checklist.mark(id, ChecklistItem::ReferenceResults);
    checklist.mark(id, ChecklistItem::ScalabilityStudy);
    println!("executed via: {}", results[0].value("submit").unwrap());
    println!("reference FOM: {fom} s (verified)\n");

    // ---- describe & package ----------------------------------------------
    let description = format!(
        "{}\nReference execution: 8 nodes, FOM {fom} s.\n",
        describe(&id.meta())
    );
    checklist.mark(id, ChecklistItem::DescriptionWritten);

    let table = ResultTable::new(["nodes", "fom_s", "verified"]);
    let mut archive = Archive::new();
    archive.add("DESCRIPTION.md", description);
    archive.add("jube/benchmark.yaml", "nodes: 8\nvariant: base\n");
    archive.add("results/reference.txt", table.render(&results));
    let manifest = archive.manifest();
    checklist.mark(id, ChecklistItem::PackagedForDelivery);

    println!("committed manifest (procurement documentation):\n{manifest}");
    assert!(archive.verify(&manifest).is_empty());
    println!("archive verifies against its manifest.\n");

    println!("{}", checklist.render(&[id]));
    assert!(checklist.ready(id));
    println!("nekRS: all 11 checklist points complete — ready for delivery.");
}
