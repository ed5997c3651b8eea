//! `reverify`: the developer edit loop behind `giallar verify --cache`.
//!
//! Each op makes a seeded "edit" by invalidating the cached verdicts of the
//! drawn passes' obligations, re-verifies all 44 passes through the cache,
//! and round-trips the cache through its JSON file form in memory.

use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use giallar_core::backend::{BackendSelection, GoalClass};
use giallar_core::batch::{plan, BatchItem};
use giallar_core::cache::{CachedVerdict, VerdictCache};
use giallar_core::registry::{verified_passes, VerifiedPass};
use giallar_core::verifier::{
    fold_verdict_stream, obligation_fingerprints, pass_register_width, verify_passes_cached_with,
    Discharger,
};
use giallar_core::{Goal, ProofObligation};
use rayon::prelude::*;
use smtlite::Fingerprint;

use crate::common::{shuffled_round, Clock, OpSample, Outcome, Rng, RunConfig};
use crate::trace::{self_ms_by_name, Tracer};

/// Obligations across the 44-pass registry.
const REGISTRY_SUBGOALS: usize = 104;
const REGISTRY_PASSES: usize = 44;
const SELECTION: BackendSelection = BackendSelection::Default;
/// Set-ups timed per run; the median is reported.
const SETUPS: usize = 25;

#[derive(Clone, Copy)]
enum Edit {
    /// Edit one pass.
    One,
    /// Edit three passes.
    Three,
    /// Re-run with no edit.
    Unchanged,
    /// Start from an empty cache (a deleted or stale cache file).
    Empty,
}

/// One round: 70 % one-pass edits, 15 % three-pass edits, 10 % no edit,
/// 5 % empty cache.
const MIX: [(Edit, usize); 4] =
    [(Edit::One, 14), (Edit::Three, 3), (Edit::Unchanged, 2), (Edit::Empty, 1)];

struct Registry {
    passes: Vec<VerifiedPass>,
    /// Cache keys of each pass's obligations, in registry order.
    fingerprints: Vec<Vec<Fingerprint>>,
}

/// The state before the first op: the registry, and a cache warmed by one
/// cold run and reloaded from its file form.
fn set_up() -> (Registry, VerdictCache) {
    let passes = verified_passes();
    let mut cache = VerdictCache::new();
    let library = cache.rule_library_fingerprint();
    let fingerprints = passes
        .iter()
        .map(|pass| obligation_fingerprints(&(pass.obligations)(), library, SELECTION))
        .collect();
    let reports = verify_passes_cached_with(&passes, &mut cache, SELECTION);
    assert!(reports.iter().all(|r| r.verified), "the registry must verify during set-up");
    let cache = VerdictCache::from_json(&cache.to_json()).expect("a saved cache reloads");
    (Registry { passes, fingerprints }, cache)
}

/// Discharge work counted by the shadow re-execution of one op.
#[derive(Default)]
struct Counts {
    groups: usize,
    units: usize,
    hits: usize,
    misses: usize,
    ops: usize,
}

/// The spans whose self time is the verifier's unattributed time: the
/// shadow's root (the gaps between phases and the fold) and the wrappers of
/// the two parallel phases (thread spawn and join, and time no worker spent
/// in a phase call).
const UNATTRIBUTED: [&str; 3] = ["reverify.shadow", "verifier.prepare", "verifier.discharge"];

/// What one discharge worker hands back: its spans, then its verdicts.
type WorkerOutput = (Vec<(&'static str, u64, u64)>, Vec<(Fingerprint, CachedVerdict)>);

fn prewarmed(selection: BackendSelection, width: usize) -> Discharger {
    let mut discharger = Discharger::with_selection(selection);
    discharger.prewarm(width);
    discharger
}

/// Re-executes one cached verification on `cache` (the pre-op state with
/// the op's edit applied) with the structure of `verify_passes_cached_with`:
/// obligations and fingerprints over the same rayon workers, the sequential
/// miss scan, the plan, one prewarmed template per group, discharge on the
/// same worker split, and the registry-order fold.  Worker threads time
/// their own calls; those become child spans of the phase that ran them.
fn shadow_verify(
    registry: &Registry,
    cache: &mut VerdictCache,
    tracer: &mut Tracer,
    counts: &mut Counts,
) {
    let library = cache.rule_library_fingerprint();
    let epoch = tracer.epoch();
    let now = move || epoch.elapsed().as_nanos() as u64;

    tracer.enter("verifier.prepare");
    let prepared: Vec<(Vec<ProofObligation>, Vec<Fingerprint>, [u64; 3])> = registry
        .passes
        .par_iter()
        .map(|pass| {
            let begun = now();
            let obligations = (pass.obligations)();
            let generated = now();
            let fingerprints = obligation_fingerprints(&obligations, library, SELECTION);
            (obligations, fingerprints, [begun, generated, now()])
        })
        .collect();
    for &(_, _, [begun, generated, done]) in &prepared {
        tracer.record("verifier.obligations", begun, generated);
        tracer.record("verifier.fingerprint", generated, done);
    }
    tracer.exit();

    tracer.enter("cache.lookup");
    let mut items = Vec::new();
    let missed: Vec<Vec<bool>> = prepared
        .iter()
        .map(|(obligations, fingerprints, _)| {
            let width = pass_register_width(obligations);
            obligations
                .iter()
                .zip(fingerprints)
                .map(|(obligation, &fingerprint)| {
                    if cache.peek(fingerprint).is_some() {
                        return false;
                    }
                    let class = GoalClass::of(&obligation.goal);
                    let width = if class == GoalClass::CircuitEquivalence { width } else { 0 };
                    items.push(BatchItem {
                        selection: SELECTION,
                        class,
                        width,
                        fingerprint,
                        payload: &obligation.goal,
                    });
                    true
                })
                .collect()
        })
        .collect();
    tracer.exit();

    let groups = tracer.time("batch.plan", || plan(items));
    let templates: Vec<Discharger> = tracer.time("backend.prewarm", || {
        groups.iter().map(|group| prewarmed(group.selection, group.width)).collect()
    });
    let units: Vec<(usize, Fingerprint, &Goal)> = groups
        .iter()
        .enumerate()
        .flat_map(|(index, group)| {
            group.work.iter().map(move |&(fingerprint, goal)| (index, fingerprint, goal))
        })
        .collect();
    counts.groups += groups.len();
    counts.units += units.len();
    let phase = |index: usize| match groups[index].class {
        GoalClass::CircuitEquivalence => "backend.equiv",
        GoalClass::Arithmetic => "backend.arith",
        GoalClass::Trivial => "backend.trivial",
    };

    tracer.enter("verifier.discharge");
    let workers = rayon::current_num_threads().min(units.len()).max(1);
    let outputs: Vec<WorkerOutput> = if workers == 1 {
        let mut templates = templates;
        let mut output = WorkerOutput::default();
        for &(index, fingerprint, goal) in &units {
            let begun = now();
            let verdict = templates[index].discharge(goal);
            output.0.push((phase(index), begun, now()));
            output.1.push((fingerprint, CachedVerdict::from_verdict(&verdict)));
        }
        vec![output]
    } else {
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut output = WorkerOutput::default();
                        let mut current: Option<(usize, Discharger)> = None;
                        while let Some(&(index, fingerprint, goal)) =
                            units.get(next.fetch_add(1, Ordering::Relaxed))
                        {
                            if current.as_ref().is_none_or(|(held, _)| *held != index) {
                                let begun = now();
                                let group = &groups[index];
                                let clone = templates[index]
                                    .snapshot()
                                    .unwrap_or_else(|| prewarmed(group.selection, group.width));
                                current = Some((index, clone));
                                output.0.push(("backend.prewarm", begun, now()));
                            }
                            let discharger = &mut current.as_mut().expect("held above").1;
                            let begun = now();
                            let verdict = discharger.discharge(goal);
                            output.0.push((phase(index), begun, now()));
                            output.1.push((fingerprint, CachedVerdict::from_verdict(&verdict)));
                        }
                        output
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("discharge worker")).collect()
        })
    };
    let mut discharged = HashMap::new();
    for (spans, verdicts) in outputs {
        for (name, begun, done) in spans {
            tracer.record(name, begun, done);
        }
        discharged.extend(verdicts);
    }
    tracer.exit();

    // The fold, untimed: registry order, each pass stopping at its first
    // failing verdict, then its counters and fresh verdicts recorded.
    for ((pass, (obligations, fingerprints, _)), missed) in
        registry.passes.iter().zip(&prepared).zip(&missed)
    {
        let (mut hits, mut misses) = (0, 0);
        let mut fresh = Vec::new();
        let stream = obligations.iter().zip(fingerprints).zip(missed).map(
            |((obligation, &fingerprint), &miss)| {
                let verdict = if miss {
                    misses += 1;
                    let verdict = discharged[&fingerprint].to_verdict();
                    fresh.push((fingerprint, CachedVerdict::from_verdict(&verdict)));
                    verdict
                } else {
                    hits += 1;
                    cache.peek(fingerprint).expect("a scanned hit stays cached").to_verdict()
                };
                (verdict, obligation.description.clone())
            },
        );
        std::hint::black_box(fold_verdict_stream(stream));
        cache.note_pass(pass.name, hits, misses);
        for (fingerprint, verdict) in fresh {
            cache.record(fingerprint, verdict);
        }
    }
}

/// Applies an edit: drops the cached verdicts of the drawn passes' obligations.
fn apply_edit(cache: &mut VerdictCache, registry: &Registry, edit: Edit, drawn: &[usize]) {
    if let Edit::Empty = edit {
        *cache = VerdictCache::new();
        return;
    }
    for &pass in drawn {
        for &fingerprint in &registry.fingerprints[pass] {
            cache.invalidate(fingerprint);
        }
    }
}

pub fn run(config: &RunConfig) -> Outcome {
    let mut outcome = Outcome { clients: 1, ..Outcome::default() };
    let (registry, mut cache) = outcome.set_ups(SETUPS, set_up);
    assert_eq!(registry.passes.len(), REGISTRY_PASSES);
    outcome.pool = registry.passes.iter().map(|p| p.name.to_string()).collect();

    let mut rng = Rng::new(config.seed, "reverify");
    let mut tracer = Tracer::new(Instant::now());
    let mut counts = Counts::default();
    let mut clock = Clock::start();
    let mut op_id = 0u64;
    let mut round_index = 0;
    while clock.elapsed_s() < config.seconds {
        let traced = config.traces_round(round_index);
        round_index += 1;
        tracer.set_enabled(traced);
        for edit in shuffled_round(&MIX, &mut rng) {
            op_id += 1;
            let drawn = match edit {
                Edit::One => rng.distinct(REGISTRY_PASSES, 1),
                Edit::Three => rng.distinct(REGISTRY_PASSES, 3),
                Edit::Unchanged | Edit::Empty => Vec::new(),
            };
            // The known answer: every (pass, obligation) pair whose key was
            // invalidated misses, everything else hits.
            let invalidated: BTreeSet<Fingerprint> =
                drawn.iter().flat_map(|&p| registry.fingerprints[p].iter().copied()).collect();
            let mut expected_misses = match edit {
                Edit::Empty => REGISTRY_SUBGOALS,
                _ => registry
                    .fingerprints
                    .iter()
                    .flatten()
                    .filter(|f| invalidated.contains(f))
                    .count(),
            };
            if config.wrong_answer {
                expected_misses += 1;
            }
            let pre_op = traced.then(|| cache.clone());

            let op_start = Instant::now();
            tracer.begin_op(op_id, "reverify.op");
            tracer.time("cache.invalidate", || apply_edit(&mut cache, &registry, edit, &drawn));
            let reports = tracer.time("verifier.verify", || {
                verify_passes_cached_with(&registry.passes, &mut cache, SELECTION)
            });
            let text = tracer.time("cache.save", || cache.to_json());
            let loaded = tracer.time("cache.load", || VerdictCache::from_json(&text));
            tracer.exit();
            let latency_ms = crate::common::ms_since(op_start);

            let (hits, misses) = (cache.hits(), cache.misses());
            let ok = reports.len() == REGISTRY_PASSES
                && reports.iter().all(|r| r.verified)
                && hits + misses == REGISTRY_SUBGOALS
                && misses == expected_misses
                && loaded.as_ref().is_ok_and(|l| l.len() == cache.len());
            cache = loaded.unwrap_or_else(|_| VerdictCache::new());
            outcome.ops.push(OpSample {
                latency_ms,
                ok,
                traced,
                done_s: clock.elapsed_s(),
                input: None,
            });

            if let Some(mut shadow_cache) = pre_op {
                counts.ops += 1;
                counts.hits += hits;
                counts.misses += misses;
                apply_edit(&mut shadow_cache, &registry, edit, &drawn);
                tracer.begin_shadow(op_id, "reverify.shadow");
                shadow_verify(&registry, &mut shadow_cache, &mut tracer, &mut counts);
                tracer.exit();
            }
        }
        clock.mark();
    }
    tracer.set_enabled(false);
    outcome.marks = clock.into_marks();
    outcome.spans = tracer.into_spans();
    if config.trace {
        layers(&mut outcome, &counts);
    }
    outcome
}

fn layers(outcome: &mut Outcome, counts: &Counts) {
    let ops = counts.ops.max(1) as f64;
    let self_ms = self_ms_by_name(&outcome.spans);
    let per_op = |name: &str| self_ms.get(name).copied().unwrap_or(0.0) / ops;
    for (name, metric) in [
        ("verifier.verify", "verifier.verify_ms"),
        ("verifier.obligations", "verifier.obligations_ms"),
        ("verifier.fingerprint", "verifier.fingerprint_ms"),
        ("cache.lookup", "cache.lookup_ms"),
        ("batch.plan", "batch.plan_ms"),
        ("backend.prewarm", "backend.prewarm_ms"),
        ("backend.equiv", "backend.equiv_ms"),
        ("backend.arith", "backend.arith_ms"),
        ("backend.trivial", "backend.trivial_ms"),
        ("cache.invalidate", "cache.invalidate_ms"),
        ("cache.save", "cache.save_ms"),
        ("cache.load", "cache.load_ms"),
    ] {
        outcome.layer(metric, per_op(name), "ms");
    }
    let unattributed = UNATTRIBUTED.iter().map(|&name| per_op(name)).sum();
    outcome.layer("verifier.unattributed_ms", unattributed, "ms");
    let lookups = (counts.hits + counts.misses).max(1) as f64;
    outcome.layer("cache.hit_ratio", counts.hits as f64 / lookups, "ratio");
    outcome.layer("batch.groups", counts.groups as f64 / ops, "count");
    outcome.layer("batch.units", counts.units as f64 / ops, "count");
    outcome.layer("backend.discharges", counts.units as f64 / ops, "count");
}
