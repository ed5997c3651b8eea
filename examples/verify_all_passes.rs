//! Reproduces Table 2 of the paper: push-button verification of the 44
//! Qiskit passes, reporting the number of subgoals and verification time per
//! pass, plus the rule/utility reuse summary of §8.
//!
//! Run with `cargo run --release --example verify_all_passes`.  Sampled
//! timings of the whole registry come from `giallar bench --timings`.

use std::collections::BTreeMap;

use giallar::core::backend::BackendSelection;
use giallar::core::cache::VerdictCache;
use giallar::core::registry::verified_passes;
use giallar::core::verifier::{render_table2, reports_agree, verify_passes_cached_with};
use giallar::symbolic::{circuit_rewrite_rules, RuleClass};

fn main() {
    // The one verification run (what `giallar verify --cache` drives): a
    // cold run discharges every obligation and fills the cache, a warm run
    // answers every pass from its obligation fingerprints.
    let passes = verified_passes();
    let mut cache = VerdictCache::new();
    let reports = verify_passes_cached_with(&passes, &mut cache, BackendSelection::Default);
    println!("=== Table 2: verification results for the 44 verified passes ===\n");
    println!("{}", render_table2(&reports));

    let verified = reports.iter().filter(|r| r.verified).count();
    println!("verified {verified} / {} passes", reports.len());
    if let Some(failed) = reports.iter().find(|r| !r.verified) {
        println!("first failure: {} — {:?}", failed.name, failed.failure);
    }

    let cold_misses = cache.misses();
    cache.reset_stats();
    let warm = verify_passes_cached_with(&passes, &mut cache, BackendSelection::Default);
    assert!(reports_agree(&reports, &warm), "warm verdicts must match the cold run");
    println!(
        "incremental re-verification: cold run {cold_misses} misses, warm run {} hits and {} \
         misses, identical verdicts",
        cache.hits(),
        cache.misses()
    );

    // §8 "Reusability": rewrite-rule classes and loop templates shared across
    // passes.
    let mut class_counts: BTreeMap<&'static str, usize> = BTreeMap::new();
    for rule in circuit_rewrite_rules() {
        let key = match rule.class {
            RuleClass::Cancellation => "cancellation rules",
            RuleClass::Commutation => "commutation rules",
            RuleClass::Swap => "swap rules",
            RuleClass::Direction => "direction rules",
        };
        *class_counts.entry(key).or_insert(0) += 1;
    }
    println!("\n=== Rewrite-rule library (Figure 7 classes) ===");
    for (class, count) in &class_counts {
        println!("  {class:<20} {count} rules");
    }

    let mut template_counts: BTreeMap<String, usize> = BTreeMap::new();
    for pass in &passes {
        for template in &pass.templates {
            *template_counts.entry(format!("{template:?}")).or_insert(0) += 1;
        }
    }
    println!("\n=== Loop-template usage across the 44 passes ===");
    for (template, count) in &template_counts {
        println!("  {template:<22} used by {count} passes");
    }
}
