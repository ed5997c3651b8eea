//! Obligation-grained cache behavior: v1→v2 migration, corrupt-file
//! recovery, and the property that editing exactly one obligation's
//! canonical form re-discharges exactly that obligation.

use giallar::core::backend::BackendSelection;
use giallar::core::cache::{VerdictCache, CACHE_FORMAT_VERSION};
use giallar::core::obligation::{Goal, PassClass, ProofObligation};
use giallar::core::registry::{PassFamily, VerifiedPass};
use giallar::core::verifier::{reports_agree, verify_passes_cached_with};
use giallar::ir::Circuit;
use giallar::symbolic::SymCircuit;
use proptest::prelude::*;

/// A static name pool for synthetic passes (`VerifiedPass::name` is
/// `&'static str`).
const PASS_NAMES: [&str; 3] = ["synthetic-alpha", "synthetic-beta", "synthetic-gamma"];

/// One synthetic obligation per description; the goal cycles through the
/// three classes so every backend participates, and every goal proves.
fn synthetic_obligation(description: &str, index: usize) -> ProofObligation {
    let goal = match index % 3 {
        0 => Goal::TerminationDecrease { consumed: 2, kept: 1 },
        1 => {
            let mut lhs = Circuit::new(2);
            lhs.cx(0, 1).cx(0, 1);
            Goal::Equivalence {
                lhs: SymCircuit::from_circuit(&lhs),
                rhs: SymCircuit::from_circuit(&Circuit::new(2)),
            }
        }
        _ => Goal::AlwaysTerminates,
    };
    ProofObligation::new(description, goal)
}

/// Builds a synthetic pass list: `shape[i]` obligations for pass `i`, with
/// globally unique descriptions salted by `salt`; the obligation at
/// `edited` (when given) carries an "(edited)" marker — the one-character
/// canonical-form mutation under test.
fn synthetic_passes(
    shape: &[usize],
    salt: u64,
    edited: Option<(usize, usize)>,
) -> Vec<VerifiedPass> {
    shape
        .iter()
        .enumerate()
        .map(|(pass_index, &count)| {
            let descriptions: Vec<String> = (0..count)
                .map(|ob_index| {
                    let marker =
                        if edited == Some((pass_index, ob_index)) { " (edited)" } else { "" };
                    format!("pass {pass_index} obligation {ob_index} salt {salt}{marker}")
                })
                .collect();
            VerifiedPass {
                name: PASS_NAMES[pass_index],
                class: PassClass::General,
                family: PassFamily::Optimization,
                pass_loc: 10 + pass_index,
                templates: vec![],
                obligations: Box::new(move || {
                    descriptions
                        .iter()
                        .enumerate()
                        .map(|(i, d)| synthetic_obligation(d, i))
                        .collect()
                }),
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Mutating exactly one obligation's canonical form re-discharges
    /// exactly that obligation; every other obligation — including the
    /// rest of the same pass — answers from the cache.
    #[test]
    fn one_edited_obligation_means_one_miss(
        shape in prop::collection::vec(1usize..5, 1..4),
        target in (0u64..1 << 32, 0u64..1 << 32),
        salt in 0u64..1 << 48,
    ) {
        let total: usize = shape.iter().sum();
        let target_pass = (target.0 as usize) % shape.len();
        let target_ob = (target.1 as usize) % shape[target_pass];

        let mut cache = VerdictCache::new();
        let passes = synthetic_passes(&shape, salt, None);
        let cold = verify_passes_cached_with(&passes, &mut cache, BackendSelection::Default);
        prop_assert!(cold.iter().all(|r| r.verified));
        prop_assert_eq!(cache.misses(), total);

        cache.reset_stats();
        let edited = synthetic_passes(&shape, salt, Some((target_pass, target_ob)));
        let warm = verify_passes_cached_with(&edited, &mut cache, BackendSelection::Default);
        prop_assert!(reports_agree(&cold, &warm), "the edit must not change any verdict");
        prop_assert_eq!(cache.misses(), 1, "exactly the edited obligation re-discharges");
        prop_assert_eq!(cache.hits(), total - 1, "every other obligation hits");
        // The miss lands on the edited pass; all other passes are fully warm.
        for (index, stats) in cache.pass_stats().iter().enumerate() {
            let expected_misses = usize::from(index == target_pass);
            prop_assert_eq!(stats.misses, expected_misses, "pass {} misses", index);
            prop_assert_eq!(stats.hits, shape[index] - expected_misses);
        }

        // And the edited entry is now cached: a further identical run is
        // fully warm.
        cache.reset_stats();
        let _ = verify_passes_cached_with(&edited, &mut cache, BackendSelection::Default);
        prop_assert_eq!(cache.hits(), total);
        prop_assert_eq!(cache.misses(), 0);
    }
}

#[test]
fn v1_cache_files_migrate_to_an_empty_v2_cache_and_rewarm() {
    let dir = std::env::temp_dir().join("giallar-obligation-cache-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("migrate-{}.json", std::process::id()));

    // The exact on-disk shape PR 2 wrote: version 1, pass-grained entries.
    let v1 = format!(
        r#"{{
  "version": 1,
  "rule_library_fingerprint": "{}",
  "entries": {{
    "CXCancellation": {{
      "fingerprint": "00000000deadbeef",
      "pass_loc": 24, "subgoals": 4, "verified": true,
      "failure": null, "time_seconds": 0.0012
    }}
  }}
}}"#,
        VerdictCache::new().rule_library_fingerprint().to_hex()
    );
    std::fs::write(&path, &v1).unwrap();

    // Loading is a clean cold start, not an error …
    let mut cache = VerdictCache::load(&path).unwrap();
    assert!(cache.is_empty(), "v1 entries cannot answer v2 queries");
    assert_eq!(CACHE_FORMAT_VERSION, 2);

    // … and the next save/load round trip is a working v2 cache.
    let passes = synthetic_passes(&[2, 3], 7, None);
    let cold = verify_passes_cached_with(&passes, &mut cache, BackendSelection::Default);
    cache.save(&path).unwrap();
    let saved = std::fs::read_to_string(&path).unwrap();
    assert!(saved.contains("\"version\": 2"));
    let mut reloaded = VerdictCache::load(&path).unwrap();
    let warm = verify_passes_cached_with(&passes, &mut reloaded, BackendSelection::Default);
    assert!(reports_agree(&cold, &warm));
    assert_eq!(reloaded.hits(), 5);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn corrupt_cache_files_recover_to_a_working_cold_start() {
    let dir = std::env::temp_dir().join("giallar-obligation-cache-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("corrupt-{}.json", std::process::id()));

    for garbage in ["{ truncated", "[]", "{\"version\": \"two\"}", "\u{0}\u{1}binary"] {
        std::fs::write(&path, garbage).unwrap();
        assert!(VerdictCache::load(&path).is_err(), "strict load must reject {garbage:?}");
        let (mut cache, warning) = VerdictCache::load_lenient(&path);
        assert!(cache.is_empty());
        assert!(warning.unwrap().contains("starting empty"));

        // The recovered cache verifies and persists over the corpse.
        let passes = synthetic_passes(&[2], 13, None);
        let reports = verify_passes_cached_with(&passes, &mut cache, BackendSelection::Default);
        assert!(reports.iter().all(|r| r.verified));
        cache.save(&path).unwrap();
        let (reloaded, warning) = VerdictCache::load_lenient(&path);
        assert!(warning.is_none(), "the save must have replaced the corrupt file");
        assert_eq!(reloaded.len(), cache.len());
    }
    std::fs::remove_file(&path).unwrap();
}
