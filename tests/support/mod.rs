//! Shared helpers for the root integration tests.
//!
//! [`walk_registry`] verifies each pass on its own: one [`Discharger`] per
//! pass, prewarmed to the pass's register width, discharging in order and
//! folding with [`fold_verdict_stream`].  It shares no scan, plan or batch
//! with the one verification run, [`verify_registry`], so tests use it as
//! an independent oracle for that run.

#![allow(dead_code)]

use giallar::core::backend::BackendSelection;
use giallar::core::cache::VerdictCache;
use giallar::core::registry::verified_passes;
use giallar::core::verifier::{
    fold_verdict_stream, pass_register_width, verify_passes_cached_with, Discharger, PassReport,
};

/// The whole registry through the one verification run over an empty
/// store (an uncached `giallar verify`).
pub fn verify_registry(selection: BackendSelection) -> Vec<PassReport> {
    verify_passes_cached_with(&verified_passes(), &mut VerdictCache::new(), selection)
}

/// The whole registry through the per-pass walk, which stops discharging a
/// pass at its first failure.  Reports carry no time.
pub fn walk_registry(selection: BackendSelection) -> Vec<PassReport> {
    verified_passes()
        .iter()
        .map(|pass| {
            let obligations = (pass.obligations)();
            let mut discharger = Discharger::with_selection(selection);
            discharger.prewarm(pass_register_width(&obligations));
            let fold = fold_verdict_stream(
                obligations.iter().map(|o| (discharger.discharge(&o.goal), o.description.clone())),
            );
            PassReport {
                name: pass.name.to_string(),
                pass_loc: pass.pass_loc,
                subgoals: obligations.len(),
                time_seconds: 0.0,
                verified: fold.verified,
                failure: fold.failure,
            }
        })
        .collect()
}
