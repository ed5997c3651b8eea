//! Batched discharge: planning cache-miss obligations into groups by
//! backend routing, and the one scheduler that discharges the groups.
//!
//! The one cached verification run, [`crate::verifier::run_cached`], scans
//! its requests' obligations against a store, hands the misses to [`plan`]
//! → [`discharge_groups`], and folds the verdicts.  `giallar verify
//! --cache` ([`crate::verifier::verify_passes_cached_with`]) runs it with
//! one request; the `giallar serve` dispatcher (`Engine::verify_batch` in
//! `crates/serve`) with one request per client request of a batch.
//!
//! Giallar's verdict-determinism contract (see [`crate::backend`]) makes a
//! verdict a pure function of the obligation's canonical form, the
//! rewrite-rule library, the discharging backend, and the register width —
//! all of which are folded into the obligation fingerprint.  That purity is
//! what makes *cross-pass, cross-request* batching sound: any two missed
//! obligations with the same `(selection, goal class, width)` can share one
//! prewarmed solver context, and two occurrences of the same fingerprint
//! need only one discharge, without changing a single byte of any report.
//!
//! [`plan`] is the pure planning step: it deduplicates by fingerprint and
//! groups the remainder into [`DischargeGroup`]s with a deterministic order
//! (groups by selection/class/width, work within a group by fingerprint).
//! [`discharge_groups`] then builds one prewarmed template solver context
//! per group and lets workers steal units off a shared index, so the verdict
//! map it returns is independent of thread scheduling.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use crate::backend::{BackendSelection, GoalClass};
use crate::cache::CachedVerdict;
use crate::obligation::Goal;
use crate::verifier::Discharger;
use smtlite::Fingerprint;

/// One missed obligation awaiting discharge.  `payload` is whatever the
/// caller needs to perform the discharge (the cached run passes the goal).
#[derive(Debug)]
pub struct BatchItem<T> {
    /// The backend routing of the request that missed.
    pub selection: BackendSelection,
    /// The obligation's goal class.
    pub class: GoalClass,
    /// The discharge register width (the owning pass's widest equivalence
    /// register for circuit-equivalence goals, 0 otherwise) — part of the
    /// cache key, so it is part of the group key too.
    pub width: usize,
    /// The obligation's cache fingerprint.
    pub fingerprint: Fingerprint,
    /// Caller data carried to the discharge site.
    pub payload: T,
}

/// A set of missed obligations that share one solver context: same backend
/// selection, same goal class, same register width.
#[derive(Debug)]
pub struct DischargeGroup<T> {
    /// The backend routing all work in the group discharges under.
    pub selection: BackendSelection,
    /// The goal class all work in the group belongs to.
    pub class: GoalClass,
    /// The register width to prewarm the solver context to.
    pub width: usize,
    /// Deduplicated work, ordered by fingerprint.
    pub work: Vec<(Fingerprint, T)>,
}

fn selection_index(selection: BackendSelection) -> usize {
    BackendSelection::ALL
        .iter()
        .position(|s| *s == selection)
        .expect("every selection appears in BackendSelection::ALL")
}

/// Plans the discharge of a dispatch batch's misses: deduplicates by
/// fingerprint (the first payload wins — duplicates are the same canonical
/// obligation by construction of the fingerprint) and groups by
/// `(selection, class, width)`.
///
/// The returned group order and the work order within each group are
/// deterministic functions of the item set, independent of item order.
pub fn plan<T>(items: Vec<BatchItem<T>>) -> Vec<DischargeGroup<T>> {
    let mut groups: BTreeMap<(usize, usize, usize), BTreeMap<Fingerprint, T>> = BTreeMap::new();
    for item in items {
        groups
            .entry((selection_index(item.selection), item.class.index(), item.width))
            .or_default()
            .entry(item.fingerprint)
            .or_insert(item.payload);
    }
    groups
        .into_iter()
        .map(|((selection, class, width), work)| DischargeGroup {
            selection: BackendSelection::ALL[selection],
            class: GoalClass::ALL[class],
            width,
            work: work.into_iter().collect(),
        })
        .collect()
}

/// One discharged unit: its verdict and the wall-clock seconds its
/// discharge took (template prewarm and clones excluded).
#[derive(Debug, Clone, PartialEq)]
pub struct Discharged {
    /// The verdict, in its cacheable form.
    pub verdict: CachedVerdict,
    /// Wall-clock seconds of the discharge call.
    pub seconds: f64,
}

/// Discharges `goal` on `discharger`, timing the call.
fn timed(discharger: &mut Discharger, goal: &Goal) -> Discharged {
    let start = Instant::now();
    let verdict = CachedVerdict::from_verdict(&discharger.discharge(goal));
    Discharged { verdict, seconds: start.elapsed().as_secs_f64() }
}

/// Discharges planned groups work-stealing-parallel and returns one timed
/// verdict per fingerprint in the plan.
///
/// Each group gets one prewarmed template [`Discharger`] built up front on
/// the calling thread; workers pull units off a shared atomic index and
/// clone the owning group's template whenever they cross a group boundary,
/// so a worker that drains a whole group reuses one solver context for all
/// of it.  Templates and clones share the process's compiled
/// rule library; each copies only its group's register terms.  The worker
/// count is bounded by the rayon pool size (i.e. by `--jobs`) and by the
/// number of units.
///
/// Because verdicts are pure functions of the fingerprinted inputs (the
/// determinism contract in [`crate::backend`]), the map's contents are
/// independent of scheduling; only the recorded times vary.
pub fn discharge_groups(groups: &[DischargeGroup<&Goal>]) -> HashMap<Fingerprint, Discharged> {
    discharge_groups_with_workers(groups, rayon::current_num_threads())
}

/// A group's solver context: its selection, prewarmed to its width.
fn prewarmed(group: &DischargeGroup<&Goal>) -> Discharger {
    let mut discharger = Discharger::with_selection(group.selection);
    discharger.prewarm(group.width);
    discharger
}

/// [`discharge_groups`] on at most `workers` threads.
fn discharge_groups_with_workers(
    groups: &[DischargeGroup<&Goal>],
    workers: usize,
) -> HashMap<Fingerprint, Discharged> {
    let templates: Vec<Discharger> = groups.iter().map(prewarmed).collect();
    // Flatten in plan order: (group index, fingerprint, goal).
    let units: Vec<(usize, Fingerprint, &Goal)> = groups
        .iter()
        .enumerate()
        .flat_map(|(index, group)| {
            group.work.iter().map(move |&(fingerprint, goal)| (index, fingerprint, goal))
        })
        .collect();
    let workers = workers.min(units.len()).max(1);
    if workers == 1 {
        // Single worker (`--jobs 1` or a single unit): discharge in plan
        // order on this thread, straight on the templates.
        let mut templates = templates;
        return units
            .into_iter()
            .map(|(index, fingerprint, goal)| (fingerprint, timed(&mut templates[index], goal)))
            .collect();
    }
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut out: Vec<(Fingerprint, Discharged)> = Vec::new();
                    let mut current: Option<(usize, Discharger)> = None;
                    loop {
                        let slot = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&(index, fingerprint, goal)) = units.get(slot) else {
                            break;
                        };
                        let discharger = match current {
                            Some((held, ref mut discharger)) if held == index => discharger,
                            _ => &mut current.insert((index, templates[index].clone())).1,
                        };
                        out.push((fingerprint, timed(discharger, goal)));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|handle| handle.join().expect("discharge worker panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item(
        selection: BackendSelection,
        class: GoalClass,
        width: usize,
        fp: u64,
    ) -> BatchItem<u64> {
        BatchItem { selection, class, width, fingerprint: Fingerprint(fp), payload: fp * 10 }
    }

    #[test]
    fn groups_by_selection_class_and_width_with_fingerprint_dedup() {
        let items = vec![
            item(BackendSelection::Default, GoalClass::CircuitEquivalence, 5, 2),
            item(BackendSelection::Default, GoalClass::CircuitEquivalence, 5, 1),
            // Duplicate fingerprint: discharged once.
            item(BackendSelection::Default, GoalClass::CircuitEquivalence, 5, 2),
            // Same class, different width: separate solver context.
            item(BackendSelection::Default, GoalClass::CircuitEquivalence, 9, 3),
            item(BackendSelection::Default, GoalClass::Arithmetic, 0, 4),
            item(BackendSelection::Reference, GoalClass::Arithmetic, 0, 5),
        ];
        let groups = plan(items);
        assert_eq!(groups.len(), 4);
        // Deterministic group order: selection, then class, then width.
        assert_eq!(groups[0].width, 5);
        assert_eq!(groups[0].work.iter().map(|(fp, _)| fp.0).collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(groups[1].width, 9);
        assert_eq!(groups[2].class, GoalClass::Arithmetic);
        assert_eq!(groups[3].selection, BackendSelection::Reference);
        let total: usize = groups.iter().map(|g| g.work.len()).sum();
        assert_eq!(total, 5, "six items minus one fingerprint duplicate");
    }

    #[test]
    fn plan_is_independent_of_item_order() {
        let build = |reverse: bool| {
            let mut items = vec![
                item(BackendSelection::Default, GoalClass::CircuitEquivalence, 5, 8),
                item(BackendSelection::Default, GoalClass::CircuitEquivalence, 5, 3),
                item(BackendSelection::Default, GoalClass::Trivial, 0, 6),
            ];
            if reverse {
                items.reverse();
            }
            plan(items)
                .into_iter()
                .map(|g| (g.width, g.work.into_iter().map(|(fp, _)| fp.0).collect::<Vec<_>>()))
                .collect::<Vec<_>>()
        };
        assert_eq!(build(false), build(true));
    }

    #[test]
    fn scheduler_discharges_each_unique_fingerprint_once_like_a_fresh_discharger() {
        use qc_ir::Circuit;
        use qc_symbolic::SymCircuit;

        let equivalence = |cancels: bool| {
            let mut lhs = Circuit::new(2);
            lhs.cx(0, 1);
            if cancels {
                lhs.cx(0, 1);
            }
            Goal::Equivalence {
                lhs: SymCircuit::from_circuit(&lhs),
                rhs: SymCircuit::from_circuit(&Circuit::new(2)),
            }
        };
        let goals = [
            equivalence(true),
            equivalence(false),
            Goal::TerminationDecrease { consumed: 1, kept: 0 },
            Goal::TerminationDecrease { consumed: 1, kept: 1 },
        ];
        let selection = BackendSelection::Default;
        let batch = |index: usize, fingerprint: u64| {
            let class = GoalClass::of(&goals[index]);
            let width = if class == GoalClass::CircuitEquivalence { 2 } else { 0 };
            BatchItem {
                selection,
                class,
                width,
                fingerprint: Fingerprint(fingerprint),
                payload: &goals[index],
            }
        };
        // Fingerprint 11 appears twice: the plan keeps one unit for it.
        let items = vec![batch(0, 11), batch(1, 12), batch(2, 21), batch(0, 11), batch(3, 22)];
        let groups = plan(items);
        assert_eq!(groups.len(), 2, "one equivalence group, one arithmetic group");
        let expected: HashMap<Fingerprint, CachedVerdict> = groups
            .iter()
            .flat_map(|group| group.work.iter())
            .map(|&(fingerprint, goal)| {
                let fresh = Discharger::with_selection(selection).discharge(goal);
                (fingerprint, CachedVerdict::from_verdict(&fresh))
            })
            .collect();
        assert_eq!(expected.len(), 4);
        for workers in [1, 2] {
            let verdicts: HashMap<Fingerprint, CachedVerdict> =
                discharge_groups_with_workers(&groups, workers)
                    .into_iter()
                    .map(|(fingerprint, unit)| (fingerprint, unit.verdict))
                    .collect();
            assert_eq!(verdicts, expected, "{workers} worker(s)");
        }
    }
}
