//! The incremental verification cache must be a drop-in replacement for the
//! uncached verifier: a cold run discharges everything and matches the
//! per-pass walk exactly; a warm run answers every obligation from the
//! cache with identical verdicts; and any fingerprint drift — a changed
//! obligation, a changed rewrite-rule library, or a different discharging
//! backend — forces re-discharge instead of serving a stale verdict.

mod support;

use giallar::core::backend::{BackendSelection, GoalClass};
use giallar::core::cache::{obligation_fingerprint, VerdictCache, CACHE_FORMAT_VERSION};
use giallar::core::registry::verified_passes;
use giallar::core::verifier::{
    pass_register_width, reports_agree, verify_passes_cached_with, PassReport,
};
use giallar::smt::Fingerprint;

/// Total obligation count across the 44-pass registry (the `total_subgoals`
/// of the committed Table 2 artifact).
const REGISTRY_SUBGOALS: usize = 104;

/// The full registry through the cache under the default routing (what
/// `giallar verify --cache` runs).
fn verify_registry_cached(cache: &mut VerdictCache) -> Vec<PassReport> {
    verify_passes_cached_with(&verified_passes(), cache, BackendSelection::Default)
}

#[test]
fn cold_and_warm_cached_runs_match_the_uncached_verifier() {
    let uncached = support::walk_registry(BackendSelection::Default);

    let mut cache = VerdictCache::new();
    let cold = verify_registry_cached(&mut cache);
    assert_eq!(cold.len(), 44);
    assert!(reports_agree(&uncached, &cold), "cold cached run must match the uncached verifier");
    assert_eq!(cache.misses(), REGISTRY_SUBGOALS, "a fresh cache answers nothing");
    assert_eq!(cache.hits(), 0);

    cache.reset_stats();
    let warm = verify_registry_cached(&mut cache);
    assert!(reports_agree(&uncached, &warm), "warm cached run must match the uncached verifier");
    assert_eq!(cache.hits(), REGISTRY_SUBGOALS, "a warm cache answers every obligation");
    assert_eq!(cache.misses(), 0, "nothing may be re-discharged on an unchanged registry");
    // Per-pass stats: every pass is fully warm, and the totals add up.
    assert_eq!(cache.pass_stats().len(), 44);
    assert!(cache.pass_stats().iter().all(|s| s.misses == 0));
    assert_eq!(cache.pass_stats().iter().map(|s| s.hits).sum::<usize>(), REGISTRY_SUBGOALS);
}

#[test]
fn cache_survives_a_disk_round_trip_and_stays_warm() {
    let dir = std::env::temp_dir().join("giallar-cached-verification-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("cache-{}.json", std::process::id()));

    let mut cache = VerdictCache::new();
    let cold = verify_registry_cached(&mut cache);
    cache.save(&path).unwrap();

    let mut reloaded = VerdictCache::load(&path).unwrap();
    assert_eq!(reloaded.len(), cache.len());
    assert!(!reloaded.is_empty());
    let warm = verify_registry_cached(&mut reloaded);
    assert!(reports_agree(&cold, &warm));
    assert_eq!(
        reloaded.hits(),
        REGISTRY_SUBGOALS,
        "a reloaded cache must stay warm across processes"
    );
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn invalidating_one_obligation_rechecks_only_that_obligation() {
    let mut cache = VerdictCache::new();
    let cold = verify_registry_cached(&mut cache);

    // Simulate an edited obligation: its canonical form (and therefore its
    // fingerprint) no longer matches the stored entry.  CXCancellation's
    // obligations are unique in the registry, so exactly one occurrence
    // must re-discharge.
    let passes = verified_passes();
    let pass = passes.iter().find(|p| p.name == "CXCancellation").unwrap();
    let obligations = (pass.obligations)();
    let obligation = &obligations[0];
    let class = GoalClass::of(&obligation.goal);
    let backend = BackendSelection::Default.backend_id_for(class);
    let register =
        if class == GoalClass::CircuitEquivalence { pass_register_width(&obligations) } else { 0 };
    let fingerprint =
        obligation_fingerprint(obligation, cache.rule_library_fingerprint(), backend, register);
    assert!(cache.invalidate(fingerprint));

    cache.reset_stats();
    let warm = verify_registry_cached(&mut cache);
    assert!(reports_agree(&cold, &warm), "re-discharge must reproduce the same verdict");
    assert_eq!(cache.misses(), 1, "only the edited obligation re-discharges");
    assert_eq!(cache.hits(), REGISTRY_SUBGOALS - 1);
    let stats = cache.pass_stats().iter().find(|s| s.pass == "CXCancellation").unwrap();
    assert_eq!((stats.hits, stats.misses), ((pass.obligations)().len() - 1, 1));

    // The re-discharge wrote the fresh entry back.
    cache.reset_stats();
    let _ = verify_registry_cached(&mut cache);
    assert_eq!(cache.hits(), REGISTRY_SUBGOALS);
}

#[test]
fn changed_rule_library_invalidates_the_whole_cache_file() {
    let mut cache = VerdictCache::new();
    let _ = verify_registry_cached(&mut cache);

    // A cache recorded under a different rewrite-rule library must come back
    // empty: every verdict in it was discharged against rules that no longer
    // exist in that form.
    let current = cache.rule_library_fingerprint().to_hex();
    let foreign = Fingerprint(!cache.rule_library_fingerprint().0).to_hex();
    let stale = cache.to_json().replace(&current, &foreign);
    let mut reloaded = VerdictCache::from_json(&stale).unwrap();
    assert!(reloaded.is_empty(), "foreign rule library must discard all entries");

    let reports = verify_registry_cached(&mut reloaded);
    assert_eq!(
        reloaded.misses(),
        REGISTRY_SUBGOALS,
        "everything re-discharges under the current library"
    );
    assert!(reports.iter().all(|r| r.verified));
}

#[test]
fn format_version_drift_invalidates_the_whole_cache_file() {
    let mut cache = VerdictCache::new();
    let _ = verify_registry_cached(&mut cache);
    let stale = cache.to_json().replace(
        &format!("\"version\": {CACHE_FORMAT_VERSION}"),
        &format!("\"version\": {}", CACHE_FORMAT_VERSION + 1),
    );
    assert!(VerdictCache::from_json(&stale).unwrap().is_empty());
}
