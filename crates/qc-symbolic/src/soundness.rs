//! Soundness of the rewrite-rule library.
//!
//! The paper proves every rewrite rule once and for all in Coq against the
//! QWire matrix library.  Offline, this module performs the equivalent
//! validation against the dense matrix semantics of [`qc_ir::unitary`]: every
//! circuit identity backing a rule is checked to be a true unitary equality,
//! both on its minimal register and embedded at arbitrary positions inside a
//! larger register (the paper's "extend to the global circuit" lemma).

use qc_ir::unitary::{circuits_equivalent, equivalent_up_to_permutation};
use qc_ir::Circuit;

use crate::rules::{rule_identities, RuleIdentity};

/// The outcome of checking one identity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IdentityCheck {
    /// Identity name.
    pub name: String,
    /// Whether the identity holds on its minimal register.
    pub holds: bool,
    /// Whether the identity still holds when embedded in a larger register.
    pub holds_embedded: bool,
}

/// Embeds a small circuit into a larger register by relabelling its qubits.
fn embed(circuit: &Circuit, mapping: &[usize], num_qubits: usize) -> Circuit {
    circuit.clone().map_qubits(mapping, num_qubits).expect("embedding mapping is valid")
}

/// Checks a single identity against the matrix semantics.
pub fn check_identity(identity: &RuleIdentity) -> IdentityCheck {
    let holds = match &identity.permutation {
        None => circuits_equivalent(&identity.lhs, &identity.rhs).unwrap_or(false),
        Some(perm) => {
            equivalent_up_to_permutation(&identity.rhs, &identity.lhs, perm).unwrap_or(false)
        }
    };

    // Embedding check: place the identity at a different position inside a
    // 4-qubit register (qubit i ↦ 3 - i keeps operands distinct).
    let n = identity.lhs.num_qubits().max(identity.rhs.num_qubits());
    let mapping: Vec<usize> = (0..n).map(|q| 3 - q).collect();
    let lhs_embedded = embed(&identity.lhs, &mapping, 4);
    let rhs_embedded = embed(&identity.rhs, &mapping, 4);
    let holds_embedded = match &identity.permutation {
        None => circuits_equivalent(&lhs_embedded, &rhs_embedded).unwrap_or(false),
        Some(perm) => {
            // Remap the permutation through the embedding.
            let mut full_perm: Vec<usize> = (0..4).collect();
            for (logical, &target) in perm.iter().enumerate() {
                full_perm[mapping[logical]] = mapping[target];
            }
            equivalent_up_to_permutation(&rhs_embedded, &lhs_embedded, &full_perm).unwrap_or(false)
        }
    };

    IdentityCheck { name: identity.name.clone(), holds, holds_embedded }
}

/// Checks every identity in the library and returns the per-identity results.
pub fn check_all_identities() -> Vec<IdentityCheck> {
    rule_identities().iter().map(check_identity).collect()
}

/// Returns `true` when every rewrite rule in the library is sound.
pub fn all_rules_sound() -> bool {
    check_all_identities().iter().all(|c| c.holds && c.holds_embedded)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::SymCircuit;
    use crate::equiv::{check_equivalence, check_equivalence_with_permutation};

    #[test]
    fn every_identity_is_sound_against_the_matrix_semantics() {
        for check in check_all_identities() {
            assert!(check.holds, "identity `{}` is not a unitary equality", check.name);
            assert!(
                check.holds_embedded,
                "identity `{}` fails when embedded in a larger register",
                check.name
            );
        }
    }

    #[test]
    fn all_rules_sound_summary() {
        assert!(all_rules_sound());
    }

    #[test]
    fn symbolic_checker_discharges_its_own_identities() {
        // Consistency: every identity that backs a rewrite rule must be
        // provable by the symbolic equivalence checker itself.
        for identity in rule_identities() {
            let lhs = SymCircuit::from_circuit(&identity.lhs);
            let rhs = SymCircuit::from_circuit(&identity.rhs);
            let verdict = match &identity.permutation {
                None => check_equivalence(&lhs, &rhs),
                Some(perm) => check_equivalence_with_permutation(&rhs, &lhs, perm),
            };
            assert!(
                verdict.is_proved(),
                "identity `{}` is not discharged symbolically: {verdict:?}",
                identity.name
            );
        }
    }

    #[test]
    fn a_deliberately_wrong_identity_is_caught() {
        // Sanity-check the checker itself: X;Z is not the identity.
        let mut lhs = Circuit::new(1);
        lhs.x(0).z(0);
        let identity = RuleIdentity {
            name: "bogus".to_string(),
            lhs,
            rhs: Circuit::new(1),
            permutation: None,
        };
        let check = check_identity(&identity);
        assert!(!check.holds);
    }
}
