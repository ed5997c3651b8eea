//! The one verification run prepares passes and discharges their
//! obligations in parallel; it must say exactly what a sequential per-pass
//! walk says: same 44 registry entries, same order, same verdicts.
//! Giallar's value proposition is automated re-verification on every
//! compiler change, so CI cross-checks the two.

mod support;

use giallar::core::backend::BackendSelection;
use giallar::core::verifier::reports_agree;
use support::{verify_registry, walk_registry};

#[test]
fn parallel_reports_match_sequential_reports() {
    let sequential = walk_registry(BackendSelection::Default);
    let parallel = verify_registry(BackendSelection::Default);

    assert_eq!(sequential.len(), 44, "Table 2 has 44 verified passes");
    assert_eq!(parallel.len(), 44);

    // Same pass names in the same (registry) order.
    let sequential_names: Vec<&str> = sequential.iter().map(|r| r.name.as_str()).collect();
    let parallel_names: Vec<&str> = parallel.iter().map(|r| r.name.as_str()).collect();
    assert_eq!(sequential_names, parallel_names);

    // Same verdicts, subgoal counts, and failure descriptions.
    for (seq, par) in sequential.iter().zip(&parallel) {
        assert_eq!(seq.verified, par.verified, "verdict mismatch for {}", seq.name);
        assert_eq!(seq.subgoals, par.subgoals, "subgoal mismatch for {}", seq.name);
        assert_eq!(seq.failure, par.failure, "failure mismatch for {}", seq.name);
    }
    assert!(reports_agree(&sequential, &parallel));

    // And on this registry every pass verifies.
    assert!(sequential.iter().all(|r| r.verified));
}

#[test]
fn parallel_verification_is_deterministic() {
    let first = verify_registry(BackendSelection::Default);
    let second = verify_registry(BackendSelection::Default);
    assert!(reports_agree(&first, &second));
}
