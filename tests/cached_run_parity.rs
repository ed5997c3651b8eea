//! Differential parity between the two stores a cached verification run
//! can fold into: the in-process `VerdictCache` behind `giallar verify
//! --cache`, and the resident `Engine` behind `giallar serve`.
//!
//! Seeded sequences of edits — verify a pass subset under either backend
//! selection, invalidate a pass, forge a `Refuted` verdict for one registry
//! obligation — replay on both sides.  After every step both must agree on
//! the reports (failure text included), the request's hit/miss totals, and
//! the exported cache file, byte for byte, and the engine must hold no pins
//! between requests.  Forged refutations drive the fold's
//! stop-at-first-failure path on both sides.

use giallar::core::backend::{BackendSelection, GoalClass};
use giallar::core::cache::{CachedVerdict, VerdictCache};
use giallar::core::mutate::XorShift;
use giallar::core::registry::{verified_passes, VerifiedPass};
use giallar::core::verifier::{obligation_fingerprints, reports_agree, verify_passes_cached_with};
use giallar::serve::engine::{Engine, EngineConfig, VerifyRequest};

const SEEDS: u64 = 16;
const STEPS: usize = 16;

#[derive(Debug, Clone)]
enum Step {
    /// Verify these registry indices (ascending) under a selection.
    Verify(Vec<usize>, BackendSelection),
    /// Drop one pass's cached verdicts under a selection.
    Invalidate(usize, BackendSelection),
    /// Overwrite one obligation's verdict with a refutation.
    Forge { pass: usize, obligation: usize, selection: BackendSelection },
}

fn selection(rng: &mut XorShift) -> BackendSelection {
    BackendSelection::ALL[rng.below(BackendSelection::ALL.len())]
}

/// A seeded step sequence.  Half the subset verifies re-check the last
/// forged pass, so forged refutations are actually walked into.
fn steps(seed: u64, passes: &[VerifiedPass]) -> Vec<Step> {
    let mut rng = XorShift::new(seed);
    let mut forged = None;
    (0..STEPS)
        .map(|_| match rng.below(4) {
            0 | 1 => {
                let indices: Vec<usize> = if rng.below(4) == 0 {
                    (0..passes.len()).collect()
                } else {
                    let mut drawn: Vec<usize> =
                        (0..1 + rng.below(6)).map(|_| rng.below(passes.len())).collect();
                    if let Some(pass) = forged.filter(|_| rng.below(2) == 0) {
                        drawn.push(pass);
                    }
                    drawn.sort_unstable();
                    drawn.dedup();
                    drawn
                };
                Step::Verify(indices, selection(&mut rng))
            }
            2 => Step::Invalidate(rng.below(passes.len()), selection(&mut rng)),
            _ => {
                let pass = rng.below(passes.len());
                let obligation = rng.below((passes[pass].obligations)().len());
                forged = Some(pass);
                Step::Forge { pass, obligation, selection: selection(&mut rng) }
            }
        })
        .collect()
}

/// Counters proving the sequences reach the paths under test.
#[derive(Default)]
struct Coverage {
    failing_reports: usize,
    stopped_walks: usize,
}

fn replay(seed: u64, initial: &VerdictCache, passes: &[VerifiedPass], coverage: &mut Coverage) {
    let mut cache = initial.clone();
    let engine = Engine::with_cache(EngineConfig::default(), initial);
    let library = cache.rule_library_fingerprint();
    for (index, step) in steps(seed, passes).into_iter().enumerate() {
        let context = format!("seed {seed}, step {index}: {step:?}");
        match &step {
            Step::Verify(indices, selection) => {
                let subset: Vec<VerifiedPass> = verified_passes()
                    .into_iter()
                    .enumerate()
                    .filter_map(|(i, pass)| indices.contains(&i).then_some(pass))
                    .collect();
                cache.reset_stats();
                let local = verify_passes_cached_with(&subset, &mut cache, *selection);
                let names = subset.iter().map(|p| p.name.to_string()).collect();
                let served = engine
                    .verify(&VerifyRequest { passes: Some(names), selection: *selection })
                    .expect("registry passes resolve");
                assert!(reports_agree(&local, &served.reports), "reports differ at {context}");
                assert_eq!(
                    (cache.hits(), cache.misses()),
                    (served.hits, served.misses),
                    "hit/miss totals differ at {context}"
                );
                let failing = local.iter().filter(|r| !r.verified).count();
                coverage.failing_reports += failing;
                let walked = served.hits + served.misses;
                if failing > 0 && walked < local.iter().map(|r| r.subgoals).sum::<usize>() {
                    coverage.stopped_walks += 1;
                }
            }
            Step::Invalidate(pass, selection) => {
                let obligations = (passes[*pass].obligations)();
                let local = obligation_fingerprints(&obligations, library, *selection)
                    .into_iter()
                    .filter(|&fingerprint| cache.invalidate(fingerprint))
                    .count();
                let served = engine.invalidate(passes[*pass].name, *selection).unwrap();
                assert_eq!(local, served, "invalidated counts differ at {context}");
            }
            Step::Forge { pass, obligation, selection } => {
                let obligations = (passes[*pass].obligations)();
                let fingerprint =
                    obligation_fingerprints(&obligations, library, *selection)[*obligation];
                let verdict = CachedVerdict::Refuted {
                    explanation: format!("forged counterexample (seed {seed}, step {index})"),
                    site: None,
                };
                let backend =
                    selection.backend_id_for(GoalClass::of(&obligations[*obligation].goal));
                cache.record(fingerprint, verdict.clone());
                engine.cache().record_by(fingerprint, verdict, backend);
            }
        }
        assert_eq!(
            cache.to_json(),
            engine.cache().to_json(),
            "exported caches differ at {context}"
        );
        assert_eq!(engine.cache().pinned(), 0, "a request left pins at {context}");
    }
}

#[test]
fn seeded_edit_sequences_agree_between_the_cli_cache_and_the_engine() {
    let passes = verified_passes();
    let mut warm = VerdictCache::new();
    let _ = verify_passes_cached_with(&passes, &mut warm, BackendSelection::Default);
    let mut coverage = Coverage::default();
    for seed in 0..SEEDS {
        // Half the sequences start cold, half from a warm default-routed
        // cache file (the engine warm-starts from it like `serve --cache`).
        let initial = if seed % 2 == 0 { VerdictCache::new() } else { warm.clone() };
        replay(0x9a11_a500 + seed, &initial, &passes, &mut coverage);
    }
    assert!(coverage.failing_reports > 0, "no sequence reached a failing pass");
    assert!(coverage.stopped_walks > 0, "no sequence stopped a walk at a forged failure");
}
