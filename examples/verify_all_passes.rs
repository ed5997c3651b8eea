//! Reproduces Table 2 of the paper: push-button verification of the 44
//! Qiskit passes, reporting the number of subgoals and verification time per
//! pass, plus the rule/utility reuse summary of §8.
//!
//! Run with `cargo run --release --example verify_all_passes`.

use std::collections::BTreeMap;

use std::time::Instant;

use giallar::core::backend::BackendSelection;
use giallar::core::cache::VerdictCache;
use giallar::core::registry::verified_passes;
use giallar::core::verifier::{
    render_table2, reports_agree, verify_all_passes, verify_all_passes_parallel,
    verify_passes_cached_with,
};
use giallar::symbolic::{circuit_rewrite_rules, RuleClass};

fn main() {
    // Warm up once untimed so the sequential/parallel comparison below is not
    // biased by first-run allocation and cache effects.
    let _ = verify_all_passes();
    let start = Instant::now();
    let reports = verify_all_passes();
    let sequential_seconds = start.elapsed().as_secs_f64();
    println!("=== Table 2: verification results for the 44 verified passes ===\n");
    println!("{}", render_table2(&reports));

    let verified = reports.iter().filter(|r| r.verified).count();
    println!("verified {verified} / {} passes", reports.len());
    if let Some(failed) = reports.iter().find(|r| !r.verified) {
        println!("first failure: {} — {:?}", failed.name, failed.failure);
    }

    // The same registry, verified with one worker per chunk of passes.
    let start = Instant::now();
    let parallel = verify_all_passes_parallel();
    let parallel_seconds = start.elapsed().as_secs_f64();
    assert!(reports_agree(&reports, &parallel), "parallel verdicts must match sequential");
    println!(
        "parallel re-verification: {parallel_seconds:.4}s vs {sequential_seconds:.4}s \
         sequential ({:.2}x speedup), identical verdicts",
        if parallel_seconds > 0.0 { sequential_seconds / parallel_seconds } else { 1.0 }
    );

    // The incremental path (what `giallar verify --cache` drives): a cold
    // run discharges and fills the cache, a warm run answers every pass
    // from its obligation fingerprint without re-discharging anything.
    let passes = verified_passes();
    let mut cache = VerdictCache::new();
    let start = Instant::now();
    let cold = verify_passes_cached_with(&passes, &mut cache, BackendSelection::Default);
    let cold_seconds = start.elapsed().as_secs_f64();
    assert!(reports_agree(&reports, &cold), "cached verdicts must match uncached");
    let cold_misses = cache.misses();
    cache.reset_stats();
    let start = Instant::now();
    let warm = verify_passes_cached_with(&passes, &mut cache, BackendSelection::Default);
    let warm_seconds = start.elapsed().as_secs_f64();
    assert!(reports_agree(&reports, &warm), "warm verdicts must match uncached");
    println!(
        "incremental re-verification: cold {cold_seconds:.4}s ({cold_misses} misses), warm \
         {warm_seconds:.4}s ({} hits, {} misses), identical verdicts",
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
    for pass in verified_passes() {
        for template in &pass.templates {
            *template_counts.entry(format!("{template:?}")).or_insert(0) += 1;
        }
    }
    println!("\n=== Loop-template usage across the 44 passes ===");
    for (template, count) in &template_counts {
        println!("  {template:<22} used by {count} passes");
    }
}
