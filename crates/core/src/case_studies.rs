//! The three Qiskit bugs of §7, detected push-button by the verifier.
//!
//! 1. `optimize_1q_gates` merges a run that contains a conditioned gate
//!    (Figure 8b) — the equivalence subgoal is refuted with a counterexample.
//! 2. `commutative_cancellation` cancels gates inside a commutation group
//!    that is not pairwise commuting (Figure 9) — refuted likewise.
//! 3. `lookahead_swap` fails its termination subgoal; on the IBM-16 device of
//!    Figure 10 the executable pass indeed keeps inserting the same SWAP.

use qc_ir::{CouplingMap, DagCircuit, QcError};
use qc_passes::pass::{PropertySet, TranspilerPass};
use qc_passes::routing::LookaheadSwap;
use qc_symbolic::Verdict;
use serde::{Deserialize, Serialize};

use crate::backend::BackendRegistry;
use crate::obligation::{Goal, ProofObligation};
use crate::registry::{commutative_cancellation_obligations, optimize_1q_obligations};

/// The outcome of one case study.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CaseStudy {
    /// Which bug this is.
    pub name: String,
    /// Whether the verifier rejected the buggy pass.
    pub bug_detected: bool,
    /// The counterexample / failure explanation produced by the verifier.
    pub evidence: String,
    /// Whether the fixed version of the pass verifies.
    pub fixed_version_verified: bool,
}

/// An equivalence-bug case study: the first refuted obligation of the buggy
/// pass is the evidence, and every obligation of the fixed pass must prove.
fn equivalence_case_study(
    name: &str,
    buggy: &[ProofObligation],
    fixed: &[ProofObligation],
) -> CaseStudy {
    let refutation =
        buggy.iter().find_map(|o| match BackendRegistry::default().discharge(&o.goal) {
            Verdict::Refuted { explanation, .. } => {
                Some(format!("{}: {explanation}", o.description))
            }
            _ => None,
        });
    CaseStudy {
        name: name.to_string(),
        bug_detected: refutation.is_some(),
        evidence: refutation.unwrap_or_default(),
        fixed_version_verified: fixed
            .iter()
            .all(|o| BackendRegistry::default().discharge(&o.goal).is_proved()),
    }
}

/// §7.1 — the conditioned-gate merge in `optimize_1q_gates`.
pub fn optimize_1q_case_study() -> CaseStudy {
    equivalence_case_study(
        "optimize_1q_gates merges conditioned gates (§7.1)",
        &optimize_1q_obligations(true),
        &optimize_1q_obligations(false),
    )
}

/// §7.2 — non-transitive commutation groups in `commutative_cancellation`.
pub fn commutation_case_study() -> CaseStudy {
    equivalence_case_study(
        "commutative_cancellation groups non-commuting gates (§7.2)",
        &commutative_cancellation_obligations(true),
        &commutative_cancellation_obligations(false),
    )
}

/// §7.3 — non-termination of `lookahead_swap` on the IBM-16 device.
///
/// The termination subgoal of the `while_gate_remaining` template fails for
/// the original implementation (a loop iteration can insert a SWAP without
/// consuming any remaining gate), and the executable buggy pass diverges on
/// the Figure 10 configuration; the fixed, randomised pass terminates.
pub fn lookahead_termination_case_study() -> CaseStudy {
    // The failed termination subgoal: an iteration that inserts a SWAP but
    // consumes nothing does not decrease |remain|.
    let verdict =
        BackendRegistry::default().discharge(&Goal::TerminationDecrease { consumed: 0, kept: 0 });
    let mut bug_detected = verdict.is_refuted();
    let mut evidence = match verdict {
        Verdict::Refuted { explanation, .. } => {
            format!("termination subgoal fails: {explanation}")
        }
        other => format!("unexpected verdict {other:?}"),
    };

    // Reproduce the Figure 10 counterexample concretely.
    let coupling = CouplingMap::ibm16();
    let mut circuit = qc_ir::Circuit::new(16);
    circuit.cx(0, 8).cx(0, 7).cx(8, 15).cx(0, 15);
    let mut dag = DagCircuit::from_circuit(&circuit);
    let mut props = PropertySet::new();
    match LookaheadSwap::buggy(coupling.clone()).run(&mut dag, &mut props) {
        Err(QcError::Invariant(msg)) => {
            evidence.push_str(&format!("; concrete counterexample on IBM-16: {msg}"));
        }
        Err(other) => evidence.push_str(&format!("; unexpected failure: {other}")),
        Ok(()) => bug_detected = false,
    }

    // The fixed pass terminates and routes the same circuit.
    let mut dag = DagCircuit::from_circuit(&circuit);
    let mut props = PropertySet::new();
    let fixed_version_verified = LookaheadSwap::new(coupling, 3).run(&mut dag, &mut props).is_ok();

    CaseStudy {
        name: "lookahead_swap does not terminate on IBM-16 (§7.3)".to_string(),
        bug_detected,
        evidence,
        fixed_version_verified,
    }
}

/// Runs all three case studies.
pub fn all_case_studies() -> Vec<CaseStudy> {
    vec![optimize_1q_case_study(), commutation_case_study(), lookahead_termination_case_study()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_three_bugs_are_detected_and_all_fixes_verify() {
        for study in all_case_studies() {
            assert!(study.bug_detected, "bug not detected: {}", study.name);
            assert!(study.fixed_version_verified, "fixed version does not verify: {}", study.name);
            assert!(!study.evidence.is_empty());
        }
    }
}
