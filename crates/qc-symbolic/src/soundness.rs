//! Soundness of the rewrite-rule library.
//!
//! The paper proves every rewrite rule once and for all in Coq against the
//! QWire matrix library.  Offline, this module performs the equivalent
//! validation against the dense matrix semantics of [`qc_ir::unitary`]: a
//! circuit identity is checked to be a true unitary equality, both on its
//! minimal register and embedded at other positions inside a larger register
//! (the paper's "extend to the global circuit" lemma).  Every rule is derived
//! from an identity ([`RuleIdentity::rules`]), so checking the identities
//! checks the rules.  [`crate::rules::rule_identities`] builds the
//! identities at one angle, so the parameterised ones are checked by
//! building them at many (`tests/rule_library.rs`).

use qc_ir::unitary::{circuits_equivalent, equivalent_up_to_permutation};

use crate::rules::RuleIdentity;

/// Checks one identity against the matrix semantics, on its minimal
/// register and embedded in a 4-qubit register (qubit `i ↦ 3 - i`).
///
/// # Errors
///
/// Names the identity, where it fails and the canonical form of every rule
/// derived from it.
pub fn check_identity(identity: &RuleIdentity) -> Result<(), String> {
    let holds = |mapping: &[usize], width: usize| {
        let embed = |circuit: &qc_ir::Circuit| {
            circuit.clone().map_qubits(mapping, width).expect("embedding mapping is valid")
        };
        let (lhs, rhs) = (embed(&identity.lhs), embed(&identity.rhs));
        match &identity.permutation {
            None => circuits_equivalent(&lhs, &rhs),
            Some(perm) => {
                // Remap the permutation through the embedding.
                let mut full: Vec<usize> = (0..width).collect();
                for (logical, &target) in perm.iter().enumerate() {
                    full[mapping[logical]] = mapping[target];
                }
                equivalent_up_to_permutation(&rhs, &lhs, &full)
            }
        }
        .unwrap_or(false)
    };
    let n = identity.lhs.num_qubits();
    let minimal: Vec<usize> = (0..n).collect();
    let embedded: Vec<usize> = (0..n).map(|q| 3 - q).collect();
    let failure = if !holds(&minimal, n) {
        "is not a unitary equality on its minimal register"
    } else if !holds(&embedded, 4) {
        "fails when embedded in a larger register"
    } else {
        return Ok(());
    };
    let rules: Vec<String> =
        identity.rules().iter().map(|rule| format!("`{}`", rule.rule.canonical_form())).collect();
    Err(format!("identity `{}` {failure}; it backs {}", identity.name, rules.join(", ")))
}
