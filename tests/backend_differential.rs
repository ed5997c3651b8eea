//! Differential cross-checks between the solver backends.
//!
//! The reference backend discharges equivalence goals with
//! `smtlite::reference_normalize` — the preserved naive rewriter — instead
//! of the compiled, head-indexed, memoized hot path.  Any verdict
//! disagreement between `--backend reference` and the default routing is a
//! soundness bug in one of the solvers; this suite (and the CI
//! differential run built on the same entry points) exists to catch it.

use giallar::core::backend::{BackendRegistry, BackendSelection, GoalClass};
use giallar::core::obligation::Goal;
use giallar::core::registry::verified_passes;
use giallar::core::verifier::{
    reports_agree, verify_all_passes, verify_all_passes_with, Discharger,
};
use giallar::ir::Circuit;
use giallar::symbolic::SymCircuit;

#[test]
fn reference_backend_agrees_with_the_default_on_the_full_registry() {
    let default = verify_all_passes();
    let reference = verify_all_passes_with(BackendSelection::Reference);
    assert_eq!(default.len(), 44);
    assert!(
        reports_agree(&default, &reference),
        "the reference backend must reproduce every registry verdict"
    );
    assert!(reference.iter().all(|r| r.verified));
}

#[test]
fn backends_agree_on_every_registry_obligation_individually() {
    // Pass-level agreement could mask a Refuted-vs-Unknown swap inside a
    // verified pass (both reports say `verified: true` only if every goal
    // proves, but check goal-by-goal anyway so a future failing goal is
    // caught with a precise location).
    for pass in verified_passes() {
        for obligation in (pass.obligations)() {
            let default =
                Discharger::with_selection(BackendSelection::Default).discharge(&obligation.goal);
            let reference =
                Discharger::with_selection(BackendSelection::Reference).discharge(&obligation.goal);
            assert_eq!(
                default.is_proved(),
                reference.is_proved(),
                "{}: reference disagrees with default on `{}`",
                pass.name,
                obligation.description
            );
        }
    }
}

#[test]
fn backends_agree_on_refuted_goals_with_identical_explanations() {
    // A refuted equivalence must produce the same failure text from both
    // backends — failure descriptions are part of the report contract that
    // `reports_agree` compares.
    let mut lhs = Circuit::new(2);
    lhs.cx(0, 1);
    let goal = Goal::Equivalence {
        lhs: SymCircuit::from_circuit(&lhs),
        rhs: SymCircuit::from_circuit(&Circuit::new(2)),
    };
    let default = Discharger::with_selection(BackendSelection::Default).discharge(&goal);
    assert!(default.is_refuted());
    let reference = Discharger::with_selection(BackendSelection::Reference).discharge(&goal);
    assert_eq!(
        format!("{default:?}"),
        format!("{reference:?}"),
        "refutation explanations must match byte for byte"
    );
}

#[test]
fn registry_routes_every_goal_class_to_a_claiming_backend() {
    for selection in BackendSelection::ALL {
        let registry = BackendRegistry::new(selection);
        for class in GoalClass::ALL {
            let id = registry.backend_id_for(class);
            assert_eq!(
                id,
                selection.backend_id_for(class),
                "{selection}: instantiated routing must match the pure id mapping"
            );
            assert!(
                registry.descriptors().iter().any(|d| d.id == id && d.supports(class)),
                "{selection}: backend `{id}` does not claim {}",
                class.name()
            );
        }
    }
}
