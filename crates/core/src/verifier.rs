//! The Giallar verifier: discharges a pass's proof obligations through the
//! goal-class-routed solver backends of [`crate::backend`] and produces the
//! per-pass reports that make up Table 2 of the paper.

use std::collections::{HashMap, HashSet};
use std::time::Instant;

use qc_symbolic::Verdict;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use smtlite::Fingerprint;

use crate::backend::{BackendRegistry, BackendSelection, GoalClass};
use crate::batch::{discharge_groups, plan, BatchItem, Discharged};
use crate::cache::{obligation_fingerprint, CachedVerdict, VerdictCache};
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
    /// Wall-clock seconds attributed to this pass by [`run_cached`]: the
    /// discharge time of every fresh verdict this pass's walk was the first
    /// in the run to reach, plus this pass's fold.  A run's per-pass times
    /// therefore sum to its discharge time plus its folds; obligation
    /// generation, fingerprinting, planning and solver prewarm are
    /// attributed to no pass, and a warm pass costs only its fold.
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

/// A reusable goal discharger: one [`BackendRegistry`] — and therefore one
/// set of solver contexts — shared by many goals instead of one per goal.
///
/// Every solver context shares the process's compiled rewrite-rule
/// library, so building one costs its register, not the library.  The
/// batched scheduler ([`crate::batch::discharge_groups`]) builds one
/// prewarmed `Discharger` per discharge group and feeds every goal of the
/// group through it or a clone of it.  The registry's equivalence state
/// grows lazily to the widest register seen (narrower circuits are checked
/// over the full register — extra wires are trivially equal) and the
/// arithmetic context for termination goals is likewise shared.
#[derive(Clone, Default)]
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

    /// Sizes the equivalence solver state for a pass up front, so it is
    /// built once rather than regrown goal by goal.
    pub fn prewarm(&mut self, max_qubits: usize) {
        self.registry.prewarm(max_qubits);
    }

    /// Discharges one goal against the shared solver state.
    pub fn discharge(&mut self, goal: &Goal) -> Verdict {
        self.registry.discharge(goal)
    }

    /// A clone of this discharger, prewarmed state included: it copies each
    /// context's terms and memo and shares its compiled rule library.
    /// Always `Some`; new code calls `clone`.
    pub fn snapshot(&self) -> Option<Discharger> {
        Some(self.clone())
    }
}

/// The widest equivalence register among a pass's obligations (0 when the
/// pass has no equivalence goals).  This is the pass's **discharge
/// context**: the registry prewarms its solver state to it, every equivalence
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
/// This is the fold of the one verification run, [`run_cached`] (behind
/// `giallar verify`, `giallar serve` and every library entry point), and of
/// the mutation campaign's wounded walks, so they all produce bit-identical
/// failure text.  Side effects in the iterator (noting what the walk
/// reached) run only for obligations the walk actually reaches.
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

/// Verifies one pass under a backend selection: the one run of
/// [`verify_passes_cached_with`] over an empty store.
pub fn verify_pass_with(pass: &VerifiedPass, selection: BackendSelection) -> PassReport {
    let mut cache = VerdictCache::new();
    let mut reports = verify_passes_cached_with(std::slice::from_ref(pass), &mut cache, selection);
    reports.pop().expect("one report per pass")
}

/// The discharge and cache width of an obligation of class `class` in a
/// pass of register width `pass_width`: circuit-equivalence goals are
/// checked over the pass's register, every other class is keyed at 0.  The
/// cache key and the cached run's discharge plan both take it from here.
fn discharge_width(class: GoalClass, pass_width: usize) -> usize {
    if class == GoalClass::CircuitEquivalence {
        pass_width
    } else {
        0
    }
}

/// Computes the cache keys for a pass's obligations under a selection: each
/// obligation is keyed by its canonical form, the rule library, the id of
/// the backend the selection routes its goal class to, and its discharge
/// width (the pass's register width for circuit-equivalence goals, 0
/// otherwise).
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
            obligation_fingerprint(obligation, library, backend, discharge_width(class, width))
        })
        .collect()
}

/// One pass ready for cached runs: its obligations generated once and
/// their cache keys computed under one or more backend selections.  The
/// `giallar serve` engine keeps the registry resident in this form.
#[derive(Debug)]
pub struct PreparedPass {
    /// Pass name.
    pub name: &'static str,
    /// Implementation size of the pass (the Table 2 "Pass LOC" column).
    pub pass_loc: usize,
    /// The pass's proof obligations, in walk order.
    obligations: Vec<ProofObligation>,
    /// Cache keys, parallel to `obligations`, per prepared selection.
    fingerprints: Vec<(BackendSelection, Vec<Fingerprint>)>,
}

impl PreparedPass {
    /// Generates a pass's obligations and computes their cache keys under
    /// each of `selections` against the rule library `library`.
    pub fn new(
        pass: &VerifiedPass,
        library: Fingerprint,
        selections: &[BackendSelection],
    ) -> PreparedPass {
        let obligations = (pass.obligations)();
        let fingerprints = selections
            .iter()
            .map(|&selection| {
                (selection, obligation_fingerprints(&obligations, library, selection))
            })
            .collect();
        PreparedPass { name: pass.name, pass_loc: pass.pass_loc, obligations, fingerprints }
    }

    /// The pass's proof obligations, in walk order.
    pub fn obligations(&self) -> &[ProofObligation] {
        &self.obligations
    }

    /// The cache keys under `selection`; panics unless prepared under it.
    pub fn fingerprints(&self, selection: BackendSelection) -> &[Fingerprint] {
        let prepared = self.fingerprints.iter().find(|(prepared, _)| *prepared == selection);
        &prepared.expect("the pass is prepared under the requested selection").1
    }
}

/// One request of a cached run: prepared passes, walked in order, under one
/// backend selection.
#[derive(Debug, Clone, Copy)]
pub struct CachedRequest<'a> {
    /// The passes to verify, in walk order.
    pub passes: &'a [&'a PreparedPass],
    /// The backend routing of the request.
    pub selection: BackendSelection,
}

/// One obligation a pass's walk reached in a cached run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reached {
    /// Answered from the store as it stood at the start of the run.
    Hit(Fingerprint),
    /// Discharged by the run: the cache key, the verdict, and the id of the
    /// backend the request's selection routed the goal to.
    Fresh(Fingerprint, CachedVerdict, &'static str),
}

/// The one verification run, behind `giallar verify` with or without
/// `--cache` ([`verify_passes_cached_with`]) and the `giallar serve`
/// dispatcher.  It writes no store: per request and pass it returns the
/// report and what the walk reached, in walk order (every obligation when
/// the pass verifies, otherwise up to and including the first failure), and
/// callers apply that to their own store.
///
/// 1. **Scan** — every obligation of every request is looked up once, in
///    order, through `lookup` (the store as it stands at the start of the
///    run); misses become [`BatchItem`]s.
/// 2. **Discharge** — [`plan`] dedups the misses by fingerprint and groups
///    them by `(selection, goal class, width)`; [`discharge_groups`]
///    discharges the groups work-stealing-parallel (bounded by `--jobs`).
/// 3. **Fold** — each pass folds through [`fold_verdict_stream`], stopping
///    at its first failure, with hits from the scan and misses from the
///    batch.  A fresh verdict's discharge time goes to the first pass, in
///    walk order, that reaches it.
///
/// Every request sees the start-of-run store, so an obligation shared by
/// two walks misses once per walk and discharges once.  The result does
/// not depend on thread scheduling.
pub fn run_cached(
    requests: &[CachedRequest<'_>],
    lookup: impl FnMut(Fingerprint) -> Option<CachedVerdict>,
) -> Vec<Vec<(PassReport, Vec<Reached>)>> {
    let (items, snapshot) = scan(requests, lookup);
    let mut discharged = discharge_groups(&plan(items));
    let mut rest = snapshot.as_slice();
    requests
        .iter()
        .map(|request| {
            request
                .passes
                .iter()
                .map(|pass| {
                    let (stored, tail) = rest.split_at(pass.obligations.len());
                    rest = tail;
                    fold_pass(pass, request.selection, stored, &mut discharged)
                })
                .collect()
        })
        .collect()
}

/// Phase 1 of [`run_cached`]: the batch items of the misses, and the stored
/// verdict (or `None`) of every obligation in walk order.
fn scan<'a>(
    requests: &[CachedRequest<'a>],
    mut lookup: impl FnMut(Fingerprint) -> Option<CachedVerdict>,
) -> (Vec<BatchItem<&'a Goal>>, Vec<Option<CachedVerdict>>) {
    let (mut items, mut snapshot) = (Vec::new(), Vec::new());
    for request in requests {
        for pass in request.passes {
            let width = pass_register_width(&pass.obligations);
            let fingerprints = pass.fingerprints(request.selection);
            for (obligation, &fingerprint) in pass.obligations.iter().zip(fingerprints) {
                let stored = lookup(fingerprint);
                if stored.is_none() {
                    let class = GoalClass::of(&obligation.goal);
                    items.push(BatchItem {
                        selection: request.selection,
                        class,
                        width: discharge_width(class, width),
                        fingerprint,
                        payload: &obligation.goal,
                    });
                }
                snapshot.push(stored);
            }
        }
    }
    (items, snapshot)
}

/// Phase 3 of [`run_cached`] for one pass.  `time_seconds` covers this fold
/// plus the discharge time of each fresh verdict the walk is the first to
/// reach (the time is taken out of `discharged`, so it counts once).
fn fold_pass(
    pass: &PreparedPass,
    selection: BackendSelection,
    stored: &[Option<CachedVerdict>],
    discharged: &mut HashMap<Fingerprint, Discharged>,
) -> (PassReport, Vec<Reached>) {
    let start = Instant::now();
    let mut discharge_seconds = 0.0;
    let mut reached = Vec::with_capacity(pass.obligations.len());
    let walk = pass.obligations.iter().zip(pass.fingerprints(selection)).zip(stored).map(
        |((obligation, &fingerprint), stored)| {
            let verdict = match stored {
                Some(stored) => {
                    reached.push(Reached::Hit(fingerprint));
                    stored.to_verdict()
                }
                None => {
                    let fresh =
                        discharged.get_mut(&fingerprint).expect("the plan covers every miss");
                    discharge_seconds += std::mem::take(&mut fresh.seconds);
                    let backend = selection.backend_id_for(GoalClass::of(&obligation.goal));
                    reached.push(Reached::Fresh(fingerprint, fresh.verdict.clone(), backend));
                    fresh.verdict.to_verdict()
                }
            };
            (verdict, obligation.description.clone())
        },
    );
    let fold = fold_verdict_stream(walk);
    let report = PassReport {
        name: pass.name.to_string(),
        pass_loc: pass.pass_loc,
        subgoals: pass.obligations.len(),
        time_seconds: start.elapsed().as_secs_f64() + discharge_seconds,
        verified: fold.verified,
        failure: fold.failure,
    };
    (report, reached)
}

/// Verifies a pass list under a backend selection — the one way a registry
/// pass is verified (`giallar verify`, Table 2, certificate schedules; an
/// uncached verify passes `&mut VerdictCache::new()`).  The passes are
/// prepared in parallel, one [`run_cached`] request discharges only the
/// misses, and each pass's hit/miss counts and fresh verdicts apply to
/// `cache` in pass order, each fresh fingerprint recorded once however many
/// walks reached it.  Reports, counters and cache file are byte-identical
/// across `--jobs` settings; only `time_seconds` varies.
pub fn verify_passes_cached_with(
    passes: &[VerifiedPass],
    cache: &mut VerdictCache,
    selection: BackendSelection,
) -> Vec<PassReport> {
    let library = cache.rule_library_fingerprint();
    let prepared: Vec<PreparedPass> =
        passes.par_iter().map(|pass| PreparedPass::new(pass, library, &[selection])).collect();
    let passes: Vec<&PreparedPass> = prepared.iter().collect();
    let request = CachedRequest { passes: &passes, selection };
    let runs = run_cached(&[request], |fingerprint| cache.peek(fingerprint).cloned());
    let mut recorded = HashSet::new();
    let apply = |(report, reached): (PassReport, Vec<Reached>)| {
        let (walked, mut hits) = (reached.len(), 0);
        for reached in reached {
            match reached {
                Reached::Hit(_) => hits += 1,
                Reached::Fresh(fingerprint, verdict, backend) => {
                    if recorded.insert(fingerprint) {
                        cache.record_by(fingerprint, verdict, backend);
                    }
                }
            }
        }
        cache.note_pass(&report.name, hits, walked - hits);
        report
    };
    runs.into_iter().flatten().map(apply).collect()
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

/// Renders reports as a text table shaped like Table 2 of the paper.  Times
/// print to the nanosecond, so a warm pass's fold still shows.
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
            "{:<32} {:>8} {:>10} {:>12.9}  {}\n",
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
        "{:<32} {:>8} {:>10} {:>12.9}\n",
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

    /// The full registry through the cache under the default routing.
    fn verify_registry_cached(cache: &mut VerdictCache) -> Vec<PassReport> {
        verify_passes_cached_with(
            &crate::registry::verified_passes(),
            cache,
            BackendSelection::Default,
        )
    }

    #[test]
    fn discharge_handles_each_goal_kind() {
        let discharge = |goal: &Goal| Discharger::new().discharge(goal);
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
        let mut reference = Discharger::with_selection(BackendSelection::Reference);
        assert!(reference.discharge(&goal).is_proved());
        assert!(reference
            .discharge(&Goal::TerminationDecrease { consumed: 1, kept: 1 })
            .is_refuted());
    }

    #[test]
    fn warm_run_matches_the_cold_run_and_hits_everything() {
        let mut cache = VerdictCache::new();
        let cold = verify_registry_cached(&mut cache);
        assert_eq!(cold.len(), 44);
        assert!(cold.iter().all(|r| r.verified));
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.misses(), REGISTRY_SUBGOALS);
        cache.reset_stats();
        let warm = verify_registry_cached(&mut cache);
        assert!(reports_agree(&cold, &warm));
        assert_eq!(cache.hits(), REGISTRY_SUBGOALS);
        assert_eq!(cache.misses(), 0);
        // Per-pass stats cover every pass and sum to the totals.
        assert_eq!(cache.pass_stats().len(), 44);
        let per_pass_hits: usize = cache.pass_stats().iter().map(|s| s.hits).sum();
        assert_eq!(per_pass_hits, REGISTRY_SUBGOALS);
        assert!(cache.pass_stats().iter().all(|s| s.misses == 0 && s.hits > 0));
    }

    #[test]
    fn a_cold_run_attributes_its_discharges_to_the_passes() {
        let total = |reports: &[PassReport]| reports.iter().map(|r| r.time_seconds).sum::<f64>();
        let mut cache = VerdictCache::new();
        let cold = verify_registry_cached(&mut cache);
        let warm = verify_registry_cached(&mut cache);
        assert!(cold.iter().all(|r| r.time_seconds > 0.0));
        // Warm passes cost only their folds; cold ones carry the discharges.
        assert!(total(&cold) > total(&warm), "cold {} vs warm {}", total(&cold), total(&warm));
        let one =
            verify_pass_with(&crate::registry::verified_passes()[0], BackendSelection::Default);
        assert!(one.time_seconds > 0.0);
    }

    #[test]
    fn invalidating_one_obligation_rechecks_only_that_obligation() {
        let mut cache = VerdictCache::new();
        let cold = verify_registry_cached(&mut cache);
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
        let warm = verify_registry_cached(&mut cache);
        assert!(reports_agree(&cold, &warm));
        assert_eq!(cache.misses(), 1, "only the invalidated obligation re-discharges");
        assert_eq!(cache.hits(), REGISTRY_SUBGOALS - 1);
        let stats = cache.pass_stats().iter().find(|s| s.pass == "CXCancellation").unwrap().clone();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, obligations.len() - 1);
        // The re-discharge refreshed the entry: everything hits again.
        cache.reset_stats();
        let _ = verify_registry_cached(&mut cache);
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
        let cold = verify_passes_cached_with(one, &mut cache, BackendSelection::Default);
        assert!(cold[0].verified);
        assert!(cache.misses() > 0);
        cache.reset_stats();
        let warm = verify_passes_cached_with(one, &mut cache, BackendSelection::Default);
        assert!(reports_agree(&cold, &warm));
        assert_eq!(cache.misses(), 0);
        assert_eq!(cache.hits(), cold[0].subgoals);
    }

    #[test]
    fn a_cold_registry_run_plans_width_only_for_equivalence_groups() {
        let library = qc_symbolic::rule_library_fingerprint();
        let selection = BackendSelection::Default;
        let prepared: Vec<PreparedPass> = crate::registry::verified_passes()
            .iter()
            .map(|pass| PreparedPass::new(pass, library, &[selection]))
            .collect();
        let passes: Vec<&PreparedPass> = prepared.iter().collect();
        let (items, snapshot) = scan(&[CachedRequest { passes: &passes, selection }], |_| None);
        assert_eq!(items.len(), REGISTRY_SUBGOALS);
        assert!(snapshot.iter().all(Option::is_none));
        let groups = plan(items);
        for group in &groups {
            if group.class != GoalClass::CircuitEquivalence {
                assert_eq!(group.width, 0, "{} goals never prewarm a register", group.class.name());
            }
        }
        // One group per equivalence register width, plus one arithmetic
        // and one trivial group.
        assert_eq!(groups.len(), 5);
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
