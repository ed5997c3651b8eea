//! The Giallar verifier: discharges a pass's proof obligations through the
//! goal-class-routed solver backends of [`crate::backend`] and produces the
//! per-pass reports that make up Table 2 of the paper.

use std::time::Instant;

use qc_symbolic::Verdict;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use smtlite::Fingerprint;

use crate::backend::{BackendRegistry, BackendSelection, GoalClass};
use crate::batch::{discharge_groups, plan, BatchItem};
use crate::cache::{obligation_fingerprint, VerdictCache};
use crate::json::Value;
use crate::obligation::{Goal, ProofObligation};
use crate::registry::VerifiedPass;

/// The verification report for one pass (one row of Table 2).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PassReport {
    /// Pass name.
    pub name: String,
    /// Lines of code of the executable pass implementation (as reported by
    /// the registry; mirrors the "Pass LOC" column).
    pub pass_loc: usize,
    /// Number of subgoals generated after preprocessing.
    pub subgoals: usize,
    /// Wall-clock verification time in seconds.
    pub time_seconds: f64,
    /// Whether every subgoal was discharged.
    pub verified: bool,
    /// Description of the first failing subgoal plus the solver
    /// counterexample, when verification fails.
    pub failure: Option<String>,
}

impl PassReport {
    /// Encodes the report as a JSON value.  With `include_timing = false`
    /// the machine-dependent `time_seconds` field is omitted, which makes
    /// the encoding deterministic (used by `--deterministic` CLI output and
    /// the committed benchmark artifacts).
    pub fn to_json_value(&self, include_timing: bool) -> Value {
        let mut members = vec![
            ("name", Value::String(self.name.clone())),
            ("pass_loc", Value::Int(self.pass_loc as i64)),
            ("subgoals", Value::Int(self.subgoals as i64)),
            ("verified", Value::Bool(self.verified)),
            ("failure", self.failure.as_ref().map_or(Value::Null, |f| Value::String(f.clone()))),
        ];
        if include_timing {
            members.push(("time_seconds", Value::Float(self.time_seconds)));
        }
        Value::object(members)
    }

    /// Decodes a report from the JSON produced by [`Self::to_json_value`].
    /// A missing `time_seconds` (deterministic encodings) decodes as `0.0`.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed field.
    pub fn from_json_value(value: &Value) -> Result<PassReport, String> {
        let name = value.get("name").and_then(Value::as_str).ok_or("report: missing `name`")?;
        let int_field = |key: &str| -> Result<usize, String> {
            value
                .get(key)
                .and_then(Value::as_int)
                .and_then(|v| usize::try_from(v).ok())
                .ok_or_else(|| format!("report: missing `{key}`"))
        };
        let verified =
            value.get("verified").and_then(Value::as_bool).ok_or("report: missing `verified`")?;
        let failure = match value.get("failure") {
            None | Some(Value::Null) => None,
            Some(Value::String(s)) => Some(s.clone()),
            Some(_) => return Err("report: bad `failure`".to_string()),
        };
        let time_seconds = match value.get("time_seconds") {
            None => 0.0,
            Some(v) => v.as_float().ok_or("report: bad `time_seconds`")?,
        };
        Ok(PassReport {
            name: name.to_string(),
            pass_loc: int_field("pass_loc")?,
            subgoals: int_field("subgoals")?,
            time_seconds,
            verified,
            failure,
        })
    }
}

/// Discharges a single goal with fresh solver state under the default
/// backend routing (the one-shot API; the verifier batches a pass's goals
/// through a [`Discharger`]).
pub fn discharge(goal: &Goal) -> Verdict {
    Discharger::new().discharge(goal)
}

/// Discharges a single goal with fresh solver state under an explicit
/// backend selection.
pub fn discharge_with(goal: &Goal, selection: BackendSelection) -> Verdict {
    Discharger::with_selection(selection).discharge(goal)
}

/// A reusable goal discharger: one [`BackendRegistry`] — and therefore one
/// solver context per routed backend — per pass instead of one per goal.
///
/// Building equivalence solver state is dominated by installing (compiling
/// and head-indexing) the full rewrite-rule library; a pass generates many
/// obligations that all need the same library, so the verifier creates one
/// `Discharger` per pass and feeds every goal through it.  The registry's
/// equivalence backend grows lazily to the widest register seen (narrower
/// circuits are checked over the full register — extra wires are trivially
/// equal) and the arithmetic context for termination goals is likewise
/// shared.  Passes verify in parallel with no state shared *across* passes —
/// the per-pass modularity of §4 is untouched.
#[derive(Default)]
pub struct Discharger {
    registry: BackendRegistry,
}

impl Discharger {
    /// Creates a discharger with the default backend routing and no solver
    /// state; contexts are built on first use.
    pub fn new() -> Self {
        Discharger::default()
    }

    /// Creates a discharger routing goals per an explicit backend selection.
    pub fn with_selection(selection: BackendSelection) -> Self {
        Discharger { registry: BackendRegistry::new(selection) }
    }

    /// The backend selection this discharger routes with.
    pub fn selection(&self) -> BackendSelection {
        self.registry.selection()
    }

    /// Sizes the equivalence solver state for a pass up front so the rule
    /// library is installed exactly once (forwarded to every backend).
    pub fn prewarm(&mut self, max_qubits: usize) {
        self.registry.prewarm(max_qubits);
    }

    /// Discharges one goal against the shared solver state.
    pub fn discharge(&mut self, goal: &Goal) -> Verdict {
        self.registry.discharge(goal)
    }

    /// A snapshot clone of this discharger, prewarmed state included — the
    /// batched scheduler builds one prewarmed template per discharge group
    /// and fans snapshot clones out across worker threads, so the rule
    /// library is compiled once per group rather than once per worker.
    /// `None` when an installed backend cannot snapshot.
    pub fn snapshot(&self) -> Option<Discharger> {
        Some(Discharger { registry: self.registry.snapshot()? })
    }
}

/// The widest equivalence register among a pass's obligations (0 when the
/// pass has no equivalence goals).  This is the pass's **discharge
/// context**: backends prewarm their solver state to it, every equivalence
/// goal of the pass is checked over it, and it is folded into the cache key
/// of circuit-equivalence obligations
/// ([`crate::cache::obligation_fingerprint`]) so cached verdicts replay
/// exactly what a fresh discharge in the same context would produce.
pub fn pass_register_width(obligations: &[ProofObligation]) -> usize {
    obligations
        .iter()
        .map(|o| match &o.goal {
            Goal::Equivalence { lhs, rhs } | Goal::EquivalenceUpToPermutation { lhs, rhs, .. } => {
                lhs.num_qubits().max(rhs.num_qubits())
            }
            _ => 0,
        })
        .max()
        .unwrap_or(0)
}

/// The pass-level outcome of folding an ordered verdict stream (see
/// [`fold_verdict_stream`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerdictFold {
    /// Whether every consumed verdict was [`Verdict::Proved`].
    pub verified: bool,
    /// The first failing subgoal's description plus counterexample (or
    /// undecidedness reason), when verification fails.
    pub failure: Option<String>,
    /// How many verdicts were consumed before stopping: the full stream
    /// when the pass verifies, or everything up to and including the first
    /// failure.
    pub consumed: usize,
}

/// Folds an ordered `(verdict, subgoal description)` stream into a
/// pass-level outcome with the verifier's walk semantics: consumption stops
/// at the first failing verdict, so items after a failure are never pulled
/// from the iterator.
///
/// This is the one fold every verification path applies — [`verify_pass`],
/// the cached verifier, and the resident service (`giallar serve`), which
/// replays it over verdicts resolved from its sharded cache — so all of
/// them produce bit-identical reports, including the failure text.  Side
/// effects in the iterator (counting a hit, recording a fresh verdict) run
/// only for obligations the walk actually reaches.
///
/// ```
/// use giallar_core::verifier::fold_verdict_stream;
/// use qc_symbolic::Verdict;
///
/// let verdicts = vec![
///     (Verdict::Proved, "branch 0".to_string()),
///     (Verdict::refuted("wire 1 flipped"), "branch 1".to_string()),
///     (Verdict::Proved, "never reached".to_string()),
/// ];
/// let fold = fold_verdict_stream(verdicts);
/// assert!(!fold.verified);
/// assert_eq!(fold.consumed, 2);
/// assert_eq!(fold.failure.as_deref(), Some("branch 1: wire 1 flipped"));
/// ```
pub fn fold_verdict_stream<I>(stream: I) -> VerdictFold
where
    I: IntoIterator<Item = (Verdict, String)>,
{
    let mut consumed = 0;
    for (verdict, description) in stream {
        consumed += 1;
        let failure = match verdict {
            Verdict::Proved => continue,
            Verdict::Refuted { explanation, .. } => format!("{description}: {explanation}"),
            Verdict::Unknown { reason } => format!("{description}: undecided ({reason})"),
        };
        return VerdictFold { verified: false, failure: Some(failure), consumed };
    }
    VerdictFold { verified: true, failure: None, consumed }
}

/// Discharges a prepared obligation list and assembles the report.  Shared
/// by the uncached and cached verification paths so that both produce
/// identical reports (modulo timing) for the same obligations.
fn discharge_obligations(
    name: &str,
    pass_loc: usize,
    obligations: &[ProofObligation],
    start: Instant,
    selection: BackendSelection,
) -> PassReport {
    let mut discharger = Discharger::with_selection(selection);
    discharger.prewarm(pass_register_width(obligations));
    let fold = fold_verdict_stream(
        obligations.iter().map(|o| (discharger.discharge(&o.goal), o.description.clone())),
    );
    PassReport {
        name: name.to_string(),
        pass_loc,
        subgoals: obligations.len(),
        time_seconds: start.elapsed().as_secs_f64(),
        verified: fold.verified,
        failure: fold.failure,
    }
}

/// Verifies one pass: generates its proof obligations and discharges each
/// under the default backend routing.
pub fn verify_pass(pass: &VerifiedPass) -> PassReport {
    verify_pass_with(pass, BackendSelection::Default)
}

/// Verifies one pass under an explicit backend selection.
pub fn verify_pass_with(pass: &VerifiedPass, selection: BackendSelection) -> PassReport {
    let start = Instant::now();
    let obligations = (pass.obligations)();
    discharge_obligations(pass.name, pass.pass_loc, &obligations, start, selection)
}

/// One pass's generated obligations paired with their cache keys (phase 1
/// of the cached verification pipeline).
type PreparedPass = (Vec<ProofObligation>, Vec<Fingerprint>);

/// Computes the cache keys for a pass's obligations under a selection: each
/// obligation is keyed by its canonical form, the rule library, the id of
/// the backend the selection routes its goal class to, and — for
/// circuit-equivalence goals — the pass's discharge register width.
pub fn obligation_fingerprints(
    obligations: &[ProofObligation],
    library: Fingerprint,
    selection: BackendSelection,
) -> Vec<Fingerprint> {
    let width = pass_register_width(obligations);
    obligations
        .iter()
        .map(|obligation| {
            let class = GoalClass::of(&obligation.goal);
            let backend = selection.backend_id_for(class);
            let register = if class == GoalClass::CircuitEquivalence { width } else { 0 };
            obligation_fingerprint(obligation, library, backend, register)
        })
        .collect()
}

/// Verifies every pass in the registry under the default routing (the full
/// Table 2).
pub fn verify_all_passes() -> Vec<PassReport> {
    verify_all_passes_with(BackendSelection::Default)
}

/// Verifies every pass in the registry under an explicit backend selection.
pub fn verify_all_passes_with(selection: BackendSelection) -> Vec<PassReport> {
    crate::registry::verified_passes().iter().map(|p| verify_pass_with(p, selection)).collect()
}

/// Verifies every pass in the registry in parallel, one worker task per
/// chunk of the 44 registry entries.
///
/// Each pass's obligations are generated and discharged against a private
/// solver context with no state shared across passes — exactly the per-pass
/// modularity that §4 of the paper relies on — so the registry verifies
/// embarrassingly parallel.  Reports come back in registry order with the
/// same names and verdicts as [`verify_all_passes`]; only the recorded
/// per-pass wall-clock times may differ between the two.
pub fn verify_all_passes_parallel() -> Vec<PassReport> {
    crate::registry::verified_passes().par_iter().map(verify_pass).collect()
}

/// Verifies every pass in the registry through the incremental cache:
/// obligations are generated and fingerprinted for all 44 passes, cache hits
/// are answered per obligation from the stored verdicts, and only the
/// missed obligations are re-discharged (passes walk in parallel, like
/// [`verify_all_passes_parallel`]).  Reports come back in registry order and
/// are identical to [`verify_all_passes`] in everything but timing —
/// cross-check with [`reports_agree`].
pub fn verify_all_passes_cached(cache: &mut VerdictCache) -> Vec<PassReport> {
    verify_passes_cached(&crate::registry::verified_passes(), cache)
}

/// The cached verification path over an explicit pass list under the
/// default routing (used by the CLI for `--pass` filtering).  See
/// [`verify_all_passes_cached`].
pub fn verify_passes_cached(passes: &[VerifiedPass], cache: &mut VerdictCache) -> Vec<PassReport> {
    verify_passes_cached_with(passes, cache, BackendSelection::Default)
}

/// The cached verification path over an explicit pass list and backend
/// selection.
///
/// Four phases keep the run deterministic and the hot path parallel:
///
/// 1. obligation generation + fingerprinting per pass, in parallel (pure);
/// 2. a sequential scan over the start-of-run cache collects every miss of
///    every pass into [`BatchItem`]s, and [`plan`] deduplicates them by
///    fingerprint and groups them by `(selection, goal class, width)`;
/// 3. the groups discharge work-stealing-parallel
///    ([`crate::batch::discharge_groups`], the scheduler the `giallar serve`
///    dispatcher runs too): one prewarmed template solver context per group,
///    snapshot-cloned per worker, so the whole run builds solver state per
///    *group* instead of per pass;
/// 4. per-pass reports, hit/miss stats, and fresh verdicts fold
///    sequentially, in registry order, through [`fold_verdict_stream`],
///    answering misses from the discharged batch — so the counters, the
///    reports, and the persisted file are byte-identical to a sequential
///    per-pass walk regardless of thread scheduling.
///
/// The rayon pool (bounded by `--jobs`) limits both phase-1 obligation
/// generation and phase-3 group discharge; `--jobs 1` degenerates to a
/// fully sequential run with identical output.
///
/// Hits and misses are judged against the start-of-run snapshot (the
/// phase-2 scan), so an obligation shared by two passes counts once per
/// pass within a single run — its verdict discharges once thanks to the
/// plan's fingerprint dedup — then hits for both on the next.  The fold
/// stops at each pass's first failing verdict exactly like the uncached
/// path: later obligations of a failed pass may have been discharged by the
/// batch, but they are neither counted nor recorded.
pub fn verify_passes_cached_with(
    passes: &[VerifiedPass],
    cache: &mut VerdictCache,
    selection: BackendSelection,
) -> Vec<PassReport> {
    let library = cache.rule_library_fingerprint();
    let prepared: Vec<PreparedPass> = passes
        .par_iter()
        .map(|pass| {
            let obligations = (pass.obligations)();
            let fingerprints = obligation_fingerprints(&obligations, library, selection);
            (obligations, fingerprints)
        })
        .collect();
    // Phase 2: cross-pass miss scan against the start-of-run cache.  The
    // per-(pass, obligation) miss flags are remembered so phase 4 counts
    // hits and misses against this snapshot, not the mutating cache.
    let mut items: Vec<BatchItem<&Goal>> = Vec::new();
    let missed: Vec<Vec<bool>> = prepared
        .iter()
        .map(|(obligations, fingerprints)| {
            let width = pass_register_width(obligations);
            obligations
                .iter()
                .zip(fingerprints)
                .map(|(obligation, &fingerprint)| {
                    if cache.peek(fingerprint).is_some() {
                        return false;
                    }
                    let class = GoalClass::of(&obligation.goal);
                    items.push(BatchItem {
                        selection,
                        class,
                        width: if class == GoalClass::CircuitEquivalence { width } else { 0 },
                        fingerprint,
                        payload: &obligation.goal,
                    });
                    true
                })
                .collect()
        })
        .collect();
    // Phase 3: plan + work-stealing discharge of the deduplicated misses.
    let discharged = discharge_groups(&plan(items));
    // Phase 4: sequential registry-order fold with walk semantics.
    let mut reports = Vec::with_capacity(passes.len());
    for ((pass, (obligations, fingerprints)), missed) in passes.iter().zip(&prepared).zip(&missed) {
        let start = Instant::now();
        let mut fresh = Vec::new();
        let mut hits = 0;
        let mut misses = 0;
        let walk = obligations.iter().zip(fingerprints).zip(missed).map(
            |((obligation, &fingerprint), &miss)| {
                let verdict = if miss {
                    misses += 1;
                    let cached =
                        discharged.get(&fingerprint).expect("the plan covers every scanned miss");
                    fresh.push((fingerprint, cached.clone()));
                    cached.to_verdict()
                } else {
                    hits += 1;
                    cache.peek(fingerprint).expect("a phase-2 hit stays cached").to_verdict()
                };
                (verdict, obligation.description.clone())
            },
        );
        let fold = fold_verdict_stream(walk);
        cache.note_pass(pass.name, hits, misses);
        for (fingerprint, verdict) in fresh {
            cache.record(fingerprint, verdict);
        }
        reports.push(PassReport {
            name: pass.name.to_string(),
            pass_loc: pass.pass_loc,
            subgoals: obligations.len(),
            time_seconds: start.elapsed().as_secs_f64(),
            verified: fold.verified,
            failure: fold.failure,
        });
    }
    reports
}

/// True when two report lists agree on everything except timing: same order,
/// same pass names, subgoal counts, verdicts, and failure descriptions.
pub fn reports_agree(lhs: &[PassReport], rhs: &[PassReport]) -> bool {
    lhs.len() == rhs.len()
        && lhs.iter().zip(rhs).all(|(a, b)| {
            a.name == b.name
                && a.pass_loc == b.pass_loc
                && a.subgoals == b.subgoals
                && a.verified == b.verified
                && a.failure == b.failure
        })
}

/// Renders reports as a text table shaped like Table 2 of the paper.
pub fn render_table2(reports: &[PassReport]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<32} {:>8} {:>10} {:>12}  {}\n",
        "Pass name", "Pass LOC", "#subgoals", "Verif. t(s)", "verified"
    ));
    let mut total_loc = 0usize;
    let mut total_subgoals = 0usize;
    let mut total_time = 0.0f64;
    for report in reports {
        out.push_str(&format!(
            "{:<32} {:>8} {:>10} {:>12.3}  {}\n",
            report.name,
            report.pass_loc,
            report.subgoals,
            report.time_seconds,
            if report.verified { "yes" } else { "NO" }
        ));
        total_loc += report.pass_loc;
        total_subgoals += report.subgoals;
        total_time += report.time_seconds;
    }
    out.push_str(&format!(
        "{:<32} {:>8} {:>10} {:>12.3}\n",
        "Sum", total_loc, total_subgoals, total_time
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obligation::Goal;
    use qc_ir::Circuit;
    use qc_symbolic::SymCircuit;

    /// Total obligation count across the 44-pass registry (the
    /// `total_subgoals` of the committed Table 2 artifact) — what a fully
    /// warm obligation-grained cache answers.
    const REGISTRY_SUBGOALS: usize = 104;

    #[test]
    fn discharge_handles_each_goal_kind() {
        // Equivalence.
        let mut lhs = Circuit::new(2);
        lhs.cx(0, 1).cx(0, 1);
        let rhs = Circuit::new(2);
        let goal = Goal::Equivalence {
            lhs: SymCircuit::from_circuit(&lhs),
            rhs: SymCircuit::from_circuit(&rhs),
        };
        assert!(discharge(&goal).is_proved());
        // Termination.
        assert!(discharge(&Goal::TerminationDecrease { consumed: 1, kept: 0 }).is_proved());
        assert!(discharge(&Goal::TerminationDecrease { consumed: 1, kept: 1 }).is_refuted());
        assert!(discharge(&Goal::AlwaysTerminates).is_proved());
        assert!(discharge(&Goal::CircuitUnchanged).is_proved());
        // Permutation equivalence.
        let mut original = Circuit::new(3);
        original.cx(0, 2);
        let mut routed = Circuit::new(3);
        routed.swap(1, 2).cx(0, 1);
        let goal = Goal::EquivalenceUpToPermutation {
            lhs: SymCircuit::from_circuit(&original),
            rhs: SymCircuit::from_circuit(&routed),
            perm: vec![0, 2, 1],
        };
        assert!(discharge(&goal).is_proved());
        // Every goal kind also discharges identically under the reference
        // backend.
        assert!(discharge_with(&goal, BackendSelection::Reference).is_proved());
        assert!(discharge_with(
            &Goal::TerminationDecrease { consumed: 1, kept: 1 },
            BackendSelection::Reference
        )
        .is_refuted());
    }

    #[test]
    fn parallel_verification_matches_sequential() {
        let sequential = verify_all_passes();
        let parallel = verify_all_passes_parallel();
        assert_eq!(sequential.len(), 44);
        assert!(reports_agree(&sequential, &parallel));
    }

    #[test]
    fn cached_verification_matches_uncached_and_hits_on_the_warm_run() {
        let uncached = verify_all_passes();
        let mut cache = VerdictCache::new();
        let cold = verify_all_passes_cached(&mut cache);
        assert!(reports_agree(&uncached, &cold));
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.misses(), REGISTRY_SUBGOALS);
        cache.reset_stats();
        let warm = verify_all_passes_cached(&mut cache);
        assert!(reports_agree(&uncached, &warm));
        assert_eq!(cache.hits(), REGISTRY_SUBGOALS);
        assert_eq!(cache.misses(), 0);
        // Per-pass stats cover every pass and sum to the totals.
        assert_eq!(cache.pass_stats().len(), 44);
        let per_pass_hits: usize = cache.pass_stats().iter().map(|s| s.hits).sum();
        assert_eq!(per_pass_hits, REGISTRY_SUBGOALS);
        assert!(cache.pass_stats().iter().all(|s| s.misses == 0 && s.hits > 0));
    }

    #[test]
    fn invalidating_one_obligation_rechecks_only_that_obligation() {
        let mut cache = VerdictCache::new();
        let cold = verify_all_passes_cached(&mut cache);
        // Forget one obligation of one pass — CXCancellation's obligations
        // are unique to it (many registry obligations are shared across
        // passes and would miss once per occurrence), so exactly one
        // occurrence misses.
        let passes = crate::registry::verified_passes();
        let pass = passes.iter().find(|p| p.name == "CXCancellation").unwrap();
        let obligations = (pass.obligations)();
        let fingerprints = obligation_fingerprints(
            &obligations,
            cache.rule_library_fingerprint(),
            BackendSelection::Default,
        );
        assert!(cache.invalidate(fingerprints[0]));
        cache.reset_stats();
        let warm = verify_all_passes_cached(&mut cache);
        assert!(reports_agree(&cold, &warm));
        assert_eq!(cache.misses(), 1, "only the invalidated obligation re-discharges");
        assert_eq!(cache.hits(), REGISTRY_SUBGOALS - 1);
        let stats = cache.pass_stats().iter().find(|s| s.pass == "CXCancellation").unwrap().clone();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, obligations.len() - 1);
        // The re-discharge refreshed the entry: everything hits again.
        cache.reset_stats();
        let _ = verify_all_passes_cached(&mut cache);
        assert_eq!(cache.hits(), REGISTRY_SUBGOALS);
    }

    #[test]
    fn reference_selection_keeps_separate_cache_entries() {
        let mut cache = VerdictCache::new();
        let passes = crate::registry::verified_passes();
        let default_cold =
            verify_passes_cached_with(&passes, &mut cache, BackendSelection::Default);
        let default_entries = cache.len();
        cache.reset_stats();
        // A reference run against the same cache file misses everything —
        // its verdicts are keyed by the reference backend id.
        let reference_cold =
            verify_passes_cached_with(&passes, &mut cache, BackendSelection::Reference);
        assert!(reports_agree(&default_cold, &reference_cold));
        assert_eq!(cache.misses(), REGISTRY_SUBGOALS);
        assert!(cache.len() > default_entries);
        // Both selections are now warm in one file.
        cache.reset_stats();
        let _ = verify_passes_cached_with(&passes, &mut cache, BackendSelection::Reference);
        assert_eq!(cache.hits(), REGISTRY_SUBGOALS);
        cache.reset_stats();
        let _ = verify_passes_cached_with(&passes, &mut cache, BackendSelection::Default);
        assert_eq!(cache.hits(), REGISTRY_SUBGOALS);
    }

    #[test]
    fn single_pass_cached_verification_matches_the_batch_path() {
        let passes = crate::registry::verified_passes();
        let pass = passes.iter().find(|p| p.name == "CXCancellation").unwrap();
        let one = std::slice::from_ref(pass);
        let mut cache = VerdictCache::new();
        let cold = verify_passes_cached(one, &mut cache);
        assert!(cold[0].verified);
        assert!(cache.misses() > 0);
        cache.reset_stats();
        let warm = verify_passes_cached(one, &mut cache);
        assert!(reports_agree(&cold, &warm));
        assert_eq!(cache.misses(), 0);
        assert_eq!(cache.hits(), cold[0].subgoals);
    }

    #[test]
    fn pass_report_json_round_trips() {
        let report = PassReport {
            name: "GateDirection".to_string(),
            pass_loc: 55,
            subgoals: 5,
            time_seconds: 0.125,
            verified: false,
            failure: Some("cx flipped: counterexample on wire 1".to_string()),
        };
        let timed = report.to_json_value(true).to_pretty();
        let back = PassReport::from_json_value(&crate::json::parse(&timed).unwrap()).unwrap();
        assert_eq!(back.name, report.name);
        assert_eq!(back.pass_loc, report.pass_loc);
        assert_eq!(back.subgoals, report.subgoals);
        assert_eq!(back.verified, report.verified);
        assert_eq!(back.failure, report.failure);
        assert_eq!(back.time_seconds.to_bits(), report.time_seconds.to_bits());
        // Deterministic form omits timing and decodes it as zero.
        let bare = report.to_json_value(false).to_pretty();
        assert!(!bare.contains("time_seconds"));
        let back = PassReport::from_json_value(&crate::json::parse(&bare).unwrap()).unwrap();
        assert_eq!(back.time_seconds, 0.0);
        assert!(reports_agree(std::slice::from_ref(&report), &[back]));
    }

    #[test]
    fn reports_agree_detects_differences() {
        let report = PassReport {
            name: "CXCancellation".to_string(),
            pass_loc: 24,
            subgoals: 4,
            time_seconds: 0.01,
            verified: true,
            failure: None,
        };
        let mut flipped = report.clone();
        flipped.verified = false;
        // Timing differences are ignored; verdict differences are not.
        let mut retimed = report.clone();
        retimed.time_seconds = 99.0;
        assert!(reports_agree(std::slice::from_ref(&report), &[retimed]));
        assert!(!reports_agree(std::slice::from_ref(&report), &[flipped]));
        assert!(!reports_agree(&[report], &[]));
    }

    #[test]
    fn table_rendering_includes_totals() {
        let reports = vec![PassReport {
            name: "CXCancellation".to_string(),
            pass_loc: 24,
            subgoals: 4,
            time_seconds: 0.01,
            verified: true,
            failure: None,
        }];
        let table = render_table2(&reports);
        assert!(table.contains("CXCancellation"));
        assert!(table.contains("Sum"));
    }
}
