//! Differential cross-checks between the solver backends.
//!
//! The reference backend discharges equivalence goals with
//! `smtlite::reference_normalize` — the preserved naive rewriter — instead
//! of the compiled, head-indexed, memoized hot path.  Any verdict
//! disagreement between `--backend reference` and the default routing is a
//! soundness bug in one of the solvers; this suite (and the CI
//! differential run built on the same entry points) exists to catch it.

mod support;

use giallar::core::backend::{BackendRegistry, BackendSelection, GoalClass};
use giallar::core::mutate::{enumerate_mutants, parse_seed};
use giallar::core::obligation::Goal;
use giallar::core::registry::verified_passes;
use giallar::core::verifier::{pass_register_width, reports_agree, Discharger};
use giallar::ir::Circuit;
use giallar::symbolic::SymCircuit;

#[test]
fn reference_backend_agrees_with_the_default_on_the_full_registry() {
    let default = support::verify_registry(BackendSelection::Default);
    let reference = support::verify_registry(BackendSelection::Reference);
    assert_eq!(default.len(), 44);
    assert!(
        reports_agree(&default, &reference),
        "the reference backend must reproduce every registry verdict"
    );
    assert!(reference.iter().all(|r| r.verified));
    // The one run matches the per-pass walk under the reference routing too.
    assert!(reports_agree(&reference, &support::walk_registry(BackendSelection::Reference)));
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
        }
    }
}

#[test]
fn plain_and_evidence_discharge_agree_on_the_registry_and_every_mutant() {
    // Cached verdicts come from `discharge` and certificates from
    // `discharge_with_evidence`; both must answer the same verdict, fault
    // site and explanation text included, or a certificate could disagree
    // with `giallar verify` on the same goal.  Each case runs in a context
    // prewarmed to its pass's register, as the verifier runs it; the
    // mutants are the wounded goals of the campaign's pinned corpus.
    let mut cases: Vec<(String, usize, Goal)> = Vec::new();
    for pass in verified_passes() {
        let obligations = (pass.obligations)();
        let width = pass_register_width(&obligations);
        for obligation in obligations {
            cases.push((
                format!("{}: {}", pass.name, obligation.description),
                width,
                obligation.goal,
            ));
        }
    }
    let registry_cases = cases.len();
    for mutant in enumerate_mutants(parse_seed("0xg1allar"), None).mutants {
        let width = pass_register_width(&mutant.obligations);
        let goal = mutant.obligations[mutant.obligation_index].goal.clone();
        cases.push((
            format!("mutant {} of {}: {}", mutant.id, mutant.pass, mutant.site),
            width,
            goal,
        ));
    }
    assert!(cases.len() > registry_cases, "the pinned seed yields mutants");
    for selection in BackendSelection::ALL {
        let mut plain = BackendRegistry::new(selection);
        let mut evidenced = BackendRegistry::new(selection);
        for (name, width, goal) in &cases {
            plain.prewarm(*width);
            evidenced.prewarm(*width);
            let verdict = plain.discharge(goal);
            let (evidenced_verdict, _) = evidenced.discharge_with_evidence(goal);
            assert_eq!(verdict, evidenced_verdict, "{selection}: the paths disagree on {name}");
        }
    }
}
