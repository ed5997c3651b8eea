//! The fault-injection campaign artifact (`BENCH_bug_detection.json`).
//!
//! Wraps `giallar_core::mutate` and `giallar_core::gen`: the registry
//! campaign wounds every falsifiable proof obligation of the 44 verified
//! passes with seven operator families and requires both solver-backend
//! routings (default and reference) to refute each wound at the wounded
//! obligation with precise fault coordinates; the generative campaign
//! corrupts compilations of a seeded random-circuit corpus with a
//! `SabotagePass` and requires the certificate checker to refuse every
//! semantic fault.
//!
//! Everything structural (mutant corpus, per-mutant verdicts, localization
//! and precision flags, generative refusal counts) is deterministic per seed and
//! drift-checked by `giallar bench --check`; time-to-refute measurements
//! live in `timing` sections emitted only with `include_timings` (see
//! [`crate::strip_timing`]).

use std::collections::BTreeMap;

use giallar_core::gen::{percentile, run_generative_campaign, GenConfig, GenerativeReport};
use giallar_core::json::Value;
use giallar_core::mutate::{run_campaign, CampaignConfig, CampaignReport, OperatorFamily};

/// The canonical campaign seed: `giallar fuzz`'s default spelling
/// `0xg1allar` (not valid hex, hashed deterministically by
/// [`giallar_core::mutate::parse_seed`]).
pub const CAMPAIGN_SEED: &str = "0xg1allar";

/// The device every generative-campaign circuit is compiled for.
pub const PIPELINE_DEVICE: &str = "line:6";

/// Compiler seed for the generative campaign.
pub const PIPELINE_SEED: u64 = 11;

/// Corpus size of the pinned generative campaign behind the committed
/// artifact and the `fuzz-generative` CI job.  `giallar fuzz --generate`
/// defaults to the same size but honors the `GIALLAR_FUZZ_CIRCUITS`
/// environment knob, so nightly runs can widen the corpus without
/// drifting the committed artifact.
pub const GENERATIVE_CIRCUITS: usize = 200;

/// The pinned generative configuration behind the `generative` section of
/// `BENCH_bug_detection.json`: [`GenConfig::pinned`] at the canonical
/// campaign seed with a [`GENERATIVE_CIRCUITS`]-circuit corpus.
pub fn pinned_generative_config(seed: u64) -> GenConfig {
    GenConfig::pinned(seed, GENERATIVE_CIRCUITS)
}

/// The full bug-detection result: the registry campaign plus (when
/// configured) the generative campaign over a random-circuit corpus.
pub struct BugDetection {
    /// The registry (obligation-level) campaign report.
    pub report: CampaignReport,
    /// The generative campaign over a seeded random-circuit corpus
    /// (`None` for registry-only runs such as `giallar fuzz --pass`).
    pub generative: Option<GenerativeReport>,
}

impl BugDetection {
    /// Surviving *semantic* wounds across both campaigns: registry
    /// mutants not refuted by every backend routing, plus semantically
    /// corrupted compilations whose certificates were not refused.
    pub fn survivors(&self) -> usize {
        self.report.survivors().len() + self.generative.as_ref().map_or(0, |g| g.survivors().len())
    }
}

/// Runs both campaigns with the canonical configuration.  `seed` is
/// the parsed registry-campaign seed; `max_mutants` bounds the registry
/// corpus for sampled runs (`None` in CI and the committed artifact);
/// `generative` adds the random-circuit campaign when supplied (the
/// committed artifact uses [`pinned_generative_config`]).
///
/// # Panics
///
/// Panics when `generative` is an invalid configuration — callers taking
/// untrusted configurations must [`GenConfig::validate`] first.
pub fn bug_detection_campaign(
    seed: u64,
    max_mutants: Option<usize>,
    generative: Option<&GenConfig>,
) -> BugDetection {
    let report = run_campaign(&CampaignConfig { seed, max_mutants, pass_filter: None });
    let generative = generative.map(|config| {
        run_generative_campaign(config, PIPELINE_DEVICE, PIPELINE_SEED)
            .expect("generative campaign configuration must be valid")
    });
    BugDetection { report, generative }
}

/// Per-family aggregate of the registry campaign.
struct FamilyRow {
    family: OperatorFamily,
    mutants: usize,
    detected: usize,
    precise: usize,
    /// Per-mutant refute times (mean across the backend runs of each
    /// mutant), in campaign order — the mean and the time-to-refute
    /// percentiles derive from this.
    refute_seconds: Vec<f64>,
}

impl FamilyRow {
    fn mean_refute_seconds(&self) -> f64 {
        self.refute_seconds.iter().sum::<f64>() / self.refute_seconds.len().max(1) as f64
    }

    /// Nearest-rank percentile of the per-mutant refute times.
    fn refute_percentile(&self, p: f64) -> f64 {
        let mut sorted = self.refute_seconds.clone();
        sorted.sort_by(f64::total_cmp);
        percentile(&sorted, p)
    }
}

fn family_rows(report: &CampaignReport) -> Vec<FamilyRow> {
    let mut rows: BTreeMap<OperatorFamily, FamilyRow> = BTreeMap::new();
    for outcome in &report.outcomes {
        let row = rows.entry(outcome.family).or_insert(FamilyRow {
            family: outcome.family,
            mutants: 0,
            detected: 0,
            precise: 0,
            refute_seconds: Vec::new(),
        });
        row.mutants += 1;
        row.detected += usize::from(outcome.detected);
        row.precise += usize::from(outcome.precise);
        let per_mutant: f64 = outcome.runs.iter().map(|r| r.time_seconds).sum::<f64>()
            / outcome.runs.len().max(1) as f64;
        row.refute_seconds.push(per_mutant);
    }
    rows.into_values().collect()
}

/// The canonical bug-detection artifact (`BENCH_bug_detection.json`).
pub fn bug_detection_artifact_json(result: &BugDetection, include_timings: bool) -> String {
    let report = &result.report;
    let families: Vec<Value> = family_rows(report)
        .iter()
        .map(|row| {
            let mut members = vec![
                ("family", Value::String(row.family.name().to_string())),
                ("mutants", Value::Int(row.mutants as i64)),
                ("detected", Value::Int(row.detected as i64)),
                ("precise", Value::Int(row.precise as i64)),
            ];
            if include_timings {
                members.push((
                    "timing",
                    Value::object(vec![
                        ("mean_refute_seconds", Value::Float(row.mean_refute_seconds())),
                        ("p50_refute_seconds", Value::Float(row.refute_percentile(50.0))),
                        ("p99_refute_seconds", Value::Float(row.refute_percentile(99.0))),
                    ]),
                ));
            }
            Value::object(members)
        })
        .collect();
    let mutants: Vec<Value> = report
        .outcomes
        .iter()
        .map(|o| {
            Value::object(vec![
                ("id", Value::Int(o.id as i64)),
                ("pass", Value::String(o.pass.to_string())),
                ("family", Value::String(o.family.name().to_string())),
                ("obligation", Value::String(o.obligation.clone())),
                ("site", Value::String(o.site.clone())),
                ("detected", Value::Bool(o.detected)),
                ("localized", Value::Bool(o.localized)),
                ("precise", Value::Bool(o.precise)),
            ])
        })
        .collect();
    let mut members = vec![
        ("benchmark", Value::String("bug_detection".to_string())),
        ("schema", Value::String("giallar-bench/v2".to_string())),
        ("seed", Value::String(CAMPAIGN_SEED.to_string())),
        ("passes", Value::Int(44)),
        (
            "rule_library_fingerprint",
            Value::String(qc_symbolic::rule_library_fingerprint().to_hex()),
        ),
        (
            "summary",
            Value::object(vec![
                ("mutants", Value::Int(report.total() as i64)),
                ("enumerated", Value::Int(report.enumerated as i64)),
                ("truncated", Value::Bool(report.truncated())),
                ("detected", Value::Int(report.detected() as i64)),
                ("detection_rate", Value::Float(report.detection_rate())),
                ("explanation_quality", Value::Float(report.explanation_quality())),
                ("skipped_equivalent", Value::Int(report.skipped_equivalent as i64)),
                ("skipped_unknown", Value::Int(report.skipped_unknown as i64)),
                ("operator_families", Value::Int(report.families().len() as i64)),
            ]),
        ),
        ("families", Value::Array(families)),
        ("mutants", Value::Array(mutants)),
    ];
    if let Some(generative) = &result.generative {
        // Keep the large per-mutant array last: insert the generative
        // section between the family rows and the mutant rows.
        let at = members.len() - 1;
        members.insert(at, ("generative", generative.to_json(include_timings)));
    }
    Value::object(members).to_pretty()
}

/// Renders the campaign as a text table (the `giallar fuzz --format table`
/// output).
pub fn bug_detection_text(result: &BugDetection) -> String {
    let report = &result.report;
    let mut out = String::new();
    out.push_str(&format!(
        "{:<22} {:>8} {:>9} {:>8} {:>18} {:>14} {:>14}\n",
        "operator family",
        "mutants",
        "detected",
        "precise",
        "mean refute (s)",
        "p50 (s)",
        "p99 (s)"
    ));
    for row in family_rows(report) {
        out.push_str(&format!(
            "{:<22} {:>8} {:>9} {:>8} {:>18.6} {:>14.6} {:>14.6}\n",
            row.family.name(),
            row.mutants,
            row.detected,
            row.precise,
            row.mean_refute_seconds(),
            row.refute_percentile(50.0),
            row.refute_percentile(99.0),
        ));
    }
    out.push_str(&format!(
        "\nregistry: {}/{} mutants refuted by every backend ({:.1}% detection, {:.1}% precise \
         localization); {} equivalent and {} undecidable candidates screened out\n",
        report.detected(),
        report.total(),
        report.detection_rate() * 100.0,
        report.explanation_quality() * 100.0,
        report.skipped_equivalent,
        report.skipped_unknown,
    ));
    if report.truncated() {
        out.push_str(&format!(
            "registry: TRUNCATED — --mutants capped the campaign to the first {} of {} \
             enumerated mutants\n",
            report.total(),
            report.enumerated,
        ));
    }
    if let Some(generative) = &result.generative {
        out.push('\n');
        out.push_str(&generative.text(false));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use giallar_core::mutate::parse_seed;

    #[test]
    fn sampled_artifact_is_deterministic_and_timing_gated() {
        let result = bug_detection_campaign(parse_seed(CAMPAIGN_SEED), Some(12), None);
        assert_eq!(result.report.total(), 12);
        assert_eq!(result.survivors(), 0, "sampled campaign has survivors");
        assert!(result.report.truncated(), "12 mutants must be a truncating cap");

        let bare = bug_detection_artifact_json(&result, false);
        assert!(!bare.contains("_seconds"));
        let timed = bug_detection_artifact_json(&result, true);
        assert!(timed.contains("p50_refute_seconds") && timed.contains("p99_refute_seconds"));
        let bare_doc = giallar_core::json::parse(&bare).unwrap();
        let timed_doc = giallar_core::json::parse(&timed).unwrap();
        assert_eq!(crate::strip_timing(&timed_doc), crate::strip_timing(&bare_doc));
        assert_eq!(crate::strip_timing(&bare_doc), bare_doc);

        // A truncated corpus must say so on every surface (no silent caps).
        let summary = bare_doc.get("summary").unwrap();
        assert_eq!(summary.get("truncated").and_then(Value::as_bool), Some(true));
        assert!(
            summary.get("enumerated").and_then(Value::as_int).unwrap() > 12,
            "enumerated must report the pre-truncation corpus size"
        );

        let text = bug_detection_text(&result);
        assert!(text.contains("registry:"));
        assert!(text.contains("TRUNCATED") && text.contains("first 12 of"));
        assert!(!text.contains("SURVIVOR"));
    }

    #[test]
    fn untruncated_campaign_reports_no_truncation() {
        let result = bug_detection_campaign(parse_seed(CAMPAIGN_SEED), None, None);
        assert!(!result.report.truncated());
        assert_eq!(result.report.enumerated, result.report.total());
        let doc = giallar_core::json::parse(&bug_detection_artifact_json(&result, false)).unwrap();
        let summary = doc.get("summary").unwrap();
        assert_eq!(summary.get("truncated").and_then(Value::as_bool), Some(false));
        assert_eq!(
            summary.get("enumerated").and_then(Value::as_int),
            summary.get("mutants").and_then(Value::as_int)
        );
        assert!(!bug_detection_text(&result).contains("TRUNCATED"));
    }

    #[test]
    fn generative_section_is_embedded_and_timing_gated() {
        let config = GenConfig::pinned(parse_seed(CAMPAIGN_SEED), 4);
        let result = bug_detection_campaign(parse_seed(CAMPAIGN_SEED), Some(6), Some(&config));
        let generative = result.generative.as_ref().unwrap();
        assert_eq!(generative.generated, 4);
        assert!(generative.survivors().is_empty(), "generative campaign has survivors");
        assert_eq!(result.survivors(), 0);

        let bare = bug_detection_artifact_json(&result, false);
        assert!(!bare.contains("_seconds"));
        let bare_doc = giallar_core::json::parse(&bare).unwrap();
        let section = bare_doc.get("generative").expect("generative section missing");
        assert_eq!(section.get("schema").and_then(Value::as_str), Some("giallar-genfuzz/v1"));
        let timed_doc =
            giallar_core::json::parse(&bug_detection_artifact_json(&result, true)).unwrap();
        assert_eq!(crate::strip_timing(&timed_doc), crate::strip_timing(&bare_doc));

        let text = bug_detection_text(&result);
        assert!(text.contains("generative campaign:"));
    }

    #[test]
    fn semantic_sabotage_is_refused_and_false_refusals_are_counted() {
        let config = GenConfig::pinned(parse_seed(CAMPAIGN_SEED), 3);
        let report = run_generative_campaign(&config, PIPELINE_DEVICE, PIPELINE_SEED).unwrap();
        assert!(report.semantic() > 0, "no sabotage was semantic");
        assert_eq!(report.refused(), report.semantic(), "semantic sabotage survived");
        assert_eq!(report.oracle_errors(), 0, "the unitary oracle failed on the pinned corpus");
        let non_semantic = report.outcomes.iter().filter(|o| !o.semantic && o.refused).count();
        assert_eq!(report.non_semantic_refused(), non_semantic);
        let doc = report.to_json(false);
        let faults = doc.get("faults").unwrap();
        assert_eq!(faults.get("oracle_errors").and_then(Value::as_int), Some(0));
        assert_eq!(
            faults.get("non_semantic_refused").and_then(Value::as_int),
            Some(non_semantic as i64)
        );
        let Some(Value::Array(families)) = doc.get("families") else { panic!("families") };
        let per_family: i64 = families
            .iter()
            .map(|f| f.get("non_semantic_refused").and_then(Value::as_int).unwrap())
            .sum();
        assert_eq!(per_family, non_semantic as i64);
        assert!(report.text(false).contains("non-semantic refused"));
    }
}
