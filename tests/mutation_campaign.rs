//! The fault-injection campaign as a regression suite: the verifier must
//! refute every wound the mutation harness can inflict, every refutation
//! must carry fault coordinates that land on the wound, and the certificate
//! checker must refuse every semantically sabotaged compilation.
//!
//! The full campaign (all mutants, every backend routing) runs here in debug mode
//! — it is cheap because refutations come from the first failing
//! obligation.  CI additionally runs `giallar fuzz --seed 0xg1allar` in
//! release mode and gates the committed `BENCH_bug_detection.json` via
//! `giallar bench --check`.

use std::collections::BTreeSet;

use giallar::core::gen::{run_generative_campaign, GenConfig};
use giallar::core::mutate::{
    enumerate_mutants, parse_seed, run_campaign, CampaignConfig, OperatorFamily,
};
use giallar::passes::inject::PipelineFault;
use giallar::smt::FaultSite;

const SEED: &str = "0xg1allar";

#[test]
fn the_corpus_is_large_and_diverse() {
    let enumeration = enumerate_mutants(parse_seed(SEED), None);
    assert!(
        enumeration.mutants.len() >= 100,
        "ISSUE floor: >= 100 mutants, got {}",
        enumeration.mutants.len()
    );
    let families: BTreeSet<OperatorFamily> = enumeration.mutants.iter().map(|m| m.family).collect();
    assert!(families.len() >= 5, "ISSUE floor: >= 5 operator families, got {}", families.len());
    let passes: BTreeSet<&str> = enumeration.mutants.iter().map(|m| m.pass).collect();
    assert!(passes.len() >= 10, "wounds should span the registry, got {} passes", passes.len());
}

#[test]
fn every_mutant_is_refuted_by_both_backends_at_the_wounded_obligation() {
    let report = run_campaign(&CampaignConfig {
        seed: parse_seed(SEED),
        max_mutants: None,
        pass_filter: None,
    });
    let survivors: Vec<String> = report
        .survivors()
        .iter()
        .map(|o| format!("{} / {} / {}", o.pass, o.family.name(), o.site))
        .collect();
    assert!(survivors.is_empty(), "surviving mutants:\n{}", survivors.join("\n"));
    assert_eq!(report.detection_rate(), 1.0);
}

#[test]
fn every_refutation_names_a_concrete_fault_site_inside_the_wound() {
    let report = run_campaign(&CampaignConfig {
        seed: parse_seed(SEED),
        max_mutants: None,
        pass_filter: None,
    });
    for outcome in &report.outcomes {
        assert!(outcome.localized, "{}: refutation lost its fault site", outcome.site);
        assert!(
            outcome.precise,
            "{} ({}): fault site escaped the wound's cone",
            outcome.site, outcome.pass
        );
        for run in &outcome.runs {
            // The textual explanation must name the coordinate too, so a
            // human reading the failure without the structured site still
            // sees where the wound is.
            let site = run.site.as_ref().expect("localized");
            let failure = run.failure.as_deref().expect("refuted");
            match site {
                FaultSite::Wire { wire } => assert!(
                    failure.contains(&format!("qubit {wire}")),
                    "explanation omits wire {wire}: {failure}"
                ),
                FaultSite::WireMap { .. } => assert!(
                    failure.contains("wire map"),
                    "explanation omits the wire map: {failure}"
                ),
                FaultSite::Termination { .. } => assert!(
                    failure.contains("decrease") || failure.contains("termination"),
                    "explanation omits the termination measure: {failure}"
                ),
            }
        }
    }
    assert_eq!(report.explanation_quality(), 1.0);
}

#[test]
fn sabotaged_compilations_are_refused_by_the_certificate_checker() {
    let config = GenConfig::pinned(parse_seed(SEED), 2);
    let report = run_generative_campaign(&config, "line:6", 11).unwrap();
    assert_eq!(report.honest_accepted, report.generated - report.skipped_uncompiled);
    let semantic: Vec<_> = report.outcomes.iter().filter(|o| o.semantic).collect();
    assert!(!semantic.is_empty(), "no drawn fault was semantic");
    for outcome in semantic {
        assert!(
            outcome.detected,
            "check-cert accepted a corrupted compilation: {} / {} ({:?})",
            outcome.circuit, outcome.fault, outcome.error
        );
    }
}

#[test]
fn pipeline_fault_descriptions_are_stable() {
    // The artifact keys on these strings; renaming them is drift.
    assert_eq!(PipelineFault::DropGate { index: 1 }.describe(), "drop gate 1");
    assert_eq!(
        PipelineFault::CorruptFinalLayout { a: 0, b: 1 }.describe(),
        "corrupt final layout (swap physical 0,1)"
    );
}
