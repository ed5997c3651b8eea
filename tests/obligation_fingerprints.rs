//! Obligation fingerprints pinned across versions.
//!
//! Every entry of a `giallar verify --cache` file is keyed by the
//! fingerprint of one registry obligation under one backend selection.  If
//! those fingerprints drift, an existing cache file silently misses on every
//! entry.  `tests/data/obligation_fingerprints.txt` holds one line per
//! (selection, pass, obligation index): the hex fingerprint the verifier
//! keys that obligation by, for every registry pass under both selections.
//!
//! After an intended change to the canonical grammar, edit the data file by
//! hand: a mismatch prints the full actual line next to the pinned one.

use giallar::core::backend::BackendSelection;
use giallar::core::registry::verified_passes;
use giallar::core::verifier::obligation_fingerprints;
use giallar::symbolic::rules::rule_library_fingerprint;

#[test]
fn registry_obligation_fingerprints_match_the_pinned_data() {
    let library = rule_library_fingerprint();
    let mut lines = Vec::new();
    for selection in BackendSelection::ALL {
        for pass in verified_passes() {
            let obligations = (pass.obligations)();
            let fingerprints = obligation_fingerprints(&obligations, library, selection);
            for (index, fingerprint) in fingerprints.iter().enumerate() {
                lines.push(format!("{} {} {index} {fingerprint}", selection.id(), pass.name));
            }
        }
    }
    let path = format!("{}/tests/data/obligation_fingerprints.txt", env!("CARGO_MANIFEST_DIR"));
    let expected = std::fs::read_to_string(path).unwrap();
    for (got, want) in lines.iter().zip(expected.lines()) {
        assert_eq!(got, want, "obligation fingerprint drifted");
    }
    assert_eq!(lines.len(), expected.lines().count(), "line count drifted");
}
