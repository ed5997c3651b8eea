//! Equivalence checking for symbolic circuits.
//!
//! Two circuits are equivalent when, starting from the same symbolic
//! register, every output wire normalises (under the rewrite-rule library)
//! to the same term.
//! This is the efficient check that replaces the exponential matrix
//! comparison in the Giallar verifier.

use qc_ir::Circuit;
use smtlite::{FaultSite, Fingerprint, TermArena, TermId, Verdict};

use crate::circuit::SymCircuit;
use crate::exec::SymbolicExecutor;

/// Per-wire equivalence evidence extracted while discharging an
/// output ≡ input goal — the payload of a translation-validation
/// certificate (see `giallar-core::certificate`).
///
/// Each entry records which output wire a logical input wire was compared
/// against and the stable fingerprints of the terms the solver compared, so
/// an independent checker can re-execute the circuits and confirm — wire by
/// wire — that it reaches the same comparison points the issuer did.
///
/// Wires that are syntactically identical (the hash-consed arena gives them
/// the same term id) are fingerprinted as-is: invoking the rewriter there
/// would prove nothing the shared id does not already prove, and full
/// normalisation of deep routed circuits is orders of magnitude more
/// expensive.  Only *differing* wires are normalised, so the fingerprints of
/// a disagreement are the actual normal forms the refutation compared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireEvidence {
    /// The logical wire of the input circuit.
    pub wire: usize,
    /// The output-circuit wire it was compared against (`wire_map[wire]`,
    /// identity beyond the map).
    pub target: usize,
    /// Fingerprint of the term the input wire was compared at: the shared
    /// term itself when both wires are syntactically identical, its normal
    /// form under the rule library otherwise.
    pub lhs_normal: Fingerprint,
    /// Fingerprint of the term the output wire was compared at (see
    /// [`WireEvidence::lhs_normal`]).
    pub rhs_normal: Fingerprint,
    /// Whether the solver proved the two wires equal.
    pub agreed: bool,
}

impl WireEvidence {
    /// The evidence of a whole register from its per-wire comparisons:
    /// entry `wire` of `compared` is `(target, lhs, rhs, agreed)`, the
    /// output wire compared against, the two terms compared there, and the
    /// solver's answer.
    ///
    /// Both sides of every wire are fingerprinted through one memo
    /// ([`TermArena::fingerprints`]): the output wires of a routed circuit
    /// share most of their sub-terms, which a memo per wire would re-hash
    /// about twice per register wire.  The values are exactly
    /// [`TermArena::fingerprint`] of each term.
    pub fn from_comparisons(
        arena: &TermArena,
        compared: &[(usize, TermId, TermId, bool)],
    ) -> Vec<WireEvidence> {
        let terms: Vec<TermId> = compared.iter().flat_map(|&(_, lhs, rhs, _)| [lhs, rhs]).collect();
        let fingerprints = arena.fingerprints(&terms);
        compared
            .iter()
            .zip(fingerprints.chunks_exact(2))
            .enumerate()
            .map(|(wire, (&(target, _, _, agreed), normal))| WireEvidence {
                wire,
                target,
                lhs_normal: normal[0],
                rhs_normal: normal[1],
                agreed,
            })
            .collect()
    }
}

/// A reusable equivalence checker over a fixed register size.
///
/// Construction clones the process's solver template, which shares the
/// compiled rewrite-rule library rather than copying it, and interns the
/// register's `num_qubits` wire terms; a checker is cheap to build.  The
/// verifier still creates **one** checker per discharge context and reuses
/// it across all wires and obligations, because the solver's normal-form
/// memo keeps re-normalising shared sub-terms free: circuits narrower than
/// the register are checked over the full register (the untouched wires are
/// trivially equal) and wire maps shorter than the register are padded with
/// the identity.
#[derive(Debug, Clone)]
pub struct EquivalenceChecker {
    executor: SymbolicExecutor,
    num_qubits: usize,
}

impl EquivalenceChecker {
    /// Creates a checker for circuits over at most `num_qubits` qubits.
    pub fn new(num_qubits: usize) -> Self {
        EquivalenceChecker { executor: SymbolicExecutor::new(num_qubits), num_qubits }
    }

    /// Access to the underlying symbolic executor.
    pub fn executor_mut(&mut self) -> &mut SymbolicExecutor {
        &mut self.executor
    }

    /// Number of qubits the checker was created for.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Checks strict equivalence: all output wires must match.
    pub fn check(&mut self, lhs: &SymCircuit, rhs: &SymCircuit) -> Verdict {
        let identity: Vec<usize> = (0..self.num_qubits).collect();
        self.check_with_wire_map(lhs, rhs, &identity)
    }

    /// Checks equivalence of a routed circuit against the original, up to the
    /// final qubit permutation tracked by the routing pass: output wire
    /// `perm[l]` of `rhs` must match output wire `l` of `lhs`.  A permutation
    /// shorter than the register is padded with the identity (the remaining
    /// wires are untouched by a narrower circuit).
    pub fn check_with_permutation(
        &mut self,
        lhs: &SymCircuit,
        rhs: &SymCircuit,
        perm: &[usize],
    ) -> Verdict {
        self.check_with_wire_map(lhs, rhs, perm)
    }

    fn check_with_wire_map(
        &mut self,
        lhs: &SymCircuit,
        rhs: &SymCircuit,
        wire_map: &[usize],
    ) -> Verdict {
        // A wire map must cover every qubit the circuits touch (a malformed
        // permutation from a buggy routing pass is an error, not an identity)
        // and fit the register; only the untouched register wires beyond the
        // circuits are identity-padded.
        let circuit_width = lhs.num_qubits().max(rhs.num_qubits());
        if wire_map.len() > self.num_qubits || wire_map.len() < circuit_width {
            return Verdict::refuted_at(
                format!(
                    "wire map covers {} qubits but the circuits span {circuit_width} \
                     and the register has {}",
                    wire_map.len(),
                    self.num_qubits
                ),
                FaultSite::WireMap { entry: None, len: wire_map.len() },
            );
        }
        if let Some(&bad) = wire_map.iter().find(|&&w| w >= self.num_qubits) {
            return Verdict::refuted_at(
                format!(
                    "wire map sends a qubit to wire {bad}, outside the {}-qubit register",
                    self.num_qubits
                ),
                FaultSite::WireMap { entry: Some(bad), len: wire_map.len() },
            );
        }
        let (out_lhs, out_rhs) = self.executor.execute_pair(lhs, rhs);
        for logical in 0..self.num_qubits {
            let a = out_lhs[logical];
            let b = out_rhs[wire_map.get(logical).copied().unwrap_or(logical)];
            if let Err(explanation) = self.executor.context_mut().check_eq(a, b) {
                return Verdict::refuted_at(
                    format!("qubit {logical} differs: {explanation}"),
                    FaultSite::Wire { wire: logical },
                );
            }
        }
        Verdict::Proved
    }

    /// Like [`Self::check_with_permutation`], but additionally extracts one
    /// [`WireEvidence`] entry per register wire — the payload of a
    /// translation-validation certificate.
    ///
    /// Unlike the plain check, every wire is visited even after a failure, so
    /// the evidence always covers the full register (an independent checker
    /// can then confirm each wire, not only the ones before the first
    /// mismatch).  The overall verdict reports the first failing wire,
    /// exactly as [`Self::check_with_permutation`] would.  Malformed wire
    /// maps are refuted with empty evidence.
    ///
    /// The loop only records which terms each wire compared; all of them
    /// are fingerprinted afterwards through one shared memo
    /// ([`WireEvidence::from_comparisons`]), so the extraction is linear in
    /// the distinct sub-terms of the register rather than walking the
    /// shared sub-DAG once per wire side.
    pub fn check_with_evidence(
        &mut self,
        lhs: &SymCircuit,
        rhs: &SymCircuit,
        wire_map: &[usize],
    ) -> (Verdict, Vec<WireEvidence>) {
        let circuit_width = lhs.num_qubits().max(rhs.num_qubits());
        if wire_map.len() > self.num_qubits || wire_map.len() < circuit_width {
            return (
                Verdict::refuted_at(
                    format!(
                        "wire map covers {} qubits but the circuits span {circuit_width} \
                         and the register has {}",
                        wire_map.len(),
                        self.num_qubits
                    ),
                    FaultSite::WireMap { entry: None, len: wire_map.len() },
                ),
                Vec::new(),
            );
        }
        if let Some(&bad) = wire_map.iter().find(|&&w| w >= self.num_qubits) {
            return (
                Verdict::refuted_at(
                    format!(
                        "wire map sends a qubit to wire {bad}, outside the {}-qubit register",
                        self.num_qubits
                    ),
                    FaultSite::WireMap { entry: Some(bad), len: wire_map.len() },
                ),
                Vec::new(),
            );
        }
        let (out_lhs, out_rhs) = self.executor.execute_pair(lhs, rhs);
        let mut compared = Vec::with_capacity(self.num_qubits);
        let mut verdict = Verdict::Proved;
        for (logical, &a) in out_lhs.iter().enumerate().take(self.num_qubits) {
            let target = wire_map.get(logical).copied().unwrap_or(logical);
            let b = out_rhs[target];
            // Identical term ids are equal by hash-consing alone; skip the
            // rewriter and fingerprint the shared term directly (normalising
            // every wire of a deep routed circuit can take seconds).
            let (wire_check, na, nb) = if a == b {
                (Ok(()), a, b)
            } else {
                let wire_check = self.executor.context_mut().check_eq(a, b);
                let na = self.executor.context_mut().normalize(a);
                let nb = self.executor.context_mut().normalize(b);
                (wire_check, na, nb)
            };
            compared.push((target, na, nb, wire_check.is_ok()));
            if let Err(explanation) = wire_check {
                if verdict.is_proved() {
                    verdict = Verdict::refuted_at(
                        format!("qubit {logical} differs: {explanation}"),
                        FaultSite::Wire { wire: logical },
                    );
                }
            }
        }
        (verdict, WireEvidence::from_comparisons(self.executor.context().arena(), &compared))
    }
}

/// Checks strict equivalence of two symbolic circuits with a fresh checker.
pub fn check_equivalence(lhs: &SymCircuit, rhs: &SymCircuit) -> Verdict {
    let n = lhs.num_qubits().max(rhs.num_qubits());
    EquivalenceChecker::new(n).check(lhs, rhs)
}

/// Checks equivalence up to a final qubit permutation (the `RoutingPass`
/// proof obligation).
pub fn check_equivalence_with_permutation(
    lhs: &SymCircuit,
    rhs: &SymCircuit,
    perm: &[usize],
) -> Verdict {
    let n = lhs.num_qubits().max(rhs.num_qubits());
    EquivalenceChecker::new(n).check_with_permutation(lhs, rhs, perm)
}

/// Checks equivalence after stripping trailing measurements from both sides
/// (the obligation for `RemoveFinalMeasurements`-style passes).
pub fn check_equivalence_up_to_final_measurements(lhs: &Circuit, rhs: &Circuit) -> Verdict {
    let a = SymCircuit::from_circuit(lhs).without_final_measurements();
    let b = SymCircuit::from_circuit(rhs).without_final_measurements();
    check_equivalence(&a, &b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qc_ir::{Gate, GateKind};

    #[test]
    fn cx_cancellation_goal() {
        let mut lhs = Circuit::new(2);
        lhs.cx(0, 1).cx(0, 1);
        let rhs = Circuit::new(2);
        assert!(check_equivalence(
            &SymCircuit::from_circuit(&lhs),
            &SymCircuit::from_circuit(&rhs)
        )
        .is_proved());
    }

    #[test]
    fn cx_cancellation_with_intervening_segment() {
        // The G2 goal from §6: CX ; C1 ; CX ; C2 ≡ C1 ; C2 where C1 does not
        // touch the CX qubits.
        let cx = Gate::new(GateKind::CX, vec![0, 1]);
        let mut lhs = SymCircuit::new(4);
        lhs.push_gate(cx.clone());
        lhs.push_segment("C1", vec![0, 1]);
        lhs.push_gate(cx.clone());
        lhs.push_segment("C2", vec![]);
        let mut rhs = SymCircuit::new(4);
        rhs.push_segment("C1", vec![0, 1]);
        rhs.push_segment("C2", vec![]);
        assert!(check_equivalence(&lhs, &rhs).is_proved());
    }

    #[test]
    fn non_equivalent_circuits_are_refuted() {
        let mut lhs = Circuit::new(2);
        lhs.cx(0, 1);
        let rhs = Circuit::new(2);
        let verdict =
            check_equivalence(&SymCircuit::from_circuit(&lhs), &SymCircuit::from_circuit(&rhs));
        assert!(verdict.is_refuted());
    }

    #[test]
    fn commutation_enables_distant_cancellation() {
        // Z(control) between two CNOTs: CX; Z(0); CX ≡ Z(0).
        let mut lhs = Circuit::new(2);
        lhs.cx(0, 1).z(0).cx(0, 1);
        let mut rhs = Circuit::new(2);
        rhs.z(0);
        assert!(check_equivalence(
            &SymCircuit::from_circuit(&lhs),
            &SymCircuit::from_circuit(&rhs)
        )
        .is_proved());
        // X on the target likewise commutes through.
        let mut lhs = Circuit::new(2);
        lhs.cx(0, 1).x(1).cx(0, 1);
        let mut rhs = Circuit::new(2);
        rhs.x(1);
        assert!(check_equivalence(
            &SymCircuit::from_circuit(&lhs),
            &SymCircuit::from_circuit(&rhs)
        )
        .is_proved());
        // But X on the *control* does not commute with CX; the (wrong) claim
        // CX; X(0); CX ≡ X(0) must be refuted.
        let mut lhs = Circuit::new(2);
        lhs.cx(0, 1).x(0).cx(0, 1);
        let mut rhs = Circuit::new(2);
        rhs.x(0);
        assert!(!check_equivalence(
            &SymCircuit::from_circuit(&lhs),
            &SymCircuit::from_circuit(&rhs)
        )
        .is_proved());
    }

    #[test]
    fn swap_rules_discharge_routing_goals() {
        // cx(0,1); swap(1,2); cx(0,1)  ≡  cx(0,1); cx(0,2) up to the final
        // permutation that maps logical 1 to wire 2 and logical 2 to wire 1.
        let mut routed = Circuit::new(3);
        routed.cx(0, 1).swap(1, 2).cx(0, 1);
        let mut original = Circuit::new(3);
        original.cx(0, 1).cx(0, 2);
        let verdict = check_equivalence_with_permutation(
            &SymCircuit::from_circuit(&original),
            &SymCircuit::from_circuit(&routed),
            &[0, 2, 1],
        );
        assert!(verdict.is_proved(), "{verdict:?}");
        // With the identity permutation the circuits differ.
        assert!(!check_equivalence(
            &SymCircuit::from_circuit(&original),
            &SymCircuit::from_circuit(&routed)
        )
        .is_proved());
    }

    #[test]
    fn malformed_wire_maps_are_rejected_and_short_registers_pad() {
        // A permutation shorter than the circuits is a malformed routing
        // artifact and must be refuted, not identity-padded.
        let mut routed = Circuit::new(3);
        routed.swap(1, 2).cx(0, 1);
        let mut original = Circuit::new(3);
        original.cx(0, 2);
        let lhs = SymCircuit::from_circuit(&original);
        let rhs = SymCircuit::from_circuit(&routed);
        let mut checker = EquivalenceChecker::new(3);
        assert!(checker.check_with_permutation(&lhs, &rhs, &[0, 2]).is_refuted());
        assert!(checker.check_with_permutation(&lhs, &rhs, &[0, 2, 1, 3]).is_refuted());
        // Out-of-range targets are refuted with an explanation, not a panic.
        assert!(checker.check_with_permutation(&lhs, &rhs, &[0, 2, 3]).is_refuted());
        assert!(checker.check_with_permutation(&lhs, &rhs, &[0, 2, 1]).is_proved());
        // A checker over a wider register pads only the untouched wires.
        let mut wide = EquivalenceChecker::new(5);
        assert!(wide.check_with_permutation(&lhs, &rhs, &[0, 2, 1]).is_proved());
        assert!(wide.check_with_permutation(&lhs, &rhs, &[0, 2]).is_refuted());
    }

    #[test]
    fn evidence_covers_every_wire_and_matches_the_plain_verdict() {
        let mut routed = Circuit::new(3);
        routed.cx(0, 1).swap(1, 2).cx(0, 1);
        let mut original = Circuit::new(3);
        original.cx(0, 1).cx(0, 2);
        let lhs = SymCircuit::from_circuit(&original);
        let rhs = SymCircuit::from_circuit(&routed);
        let mut checker = EquivalenceChecker::new(3);
        let (verdict, evidence) = checker.check_with_evidence(&lhs, &rhs, &[0, 2, 1]);
        assert!(verdict.is_proved(), "{verdict:?}");
        assert_eq!(evidence.len(), 3);
        assert!(evidence.iter().all(|e| e.agreed && e.lhs_normal == e.rhs_normal));
        assert_eq!(evidence[1].target, 2);
        // A wrong map is refuted, but the evidence still covers all wires.
        let mut checker = EquivalenceChecker::new(3);
        let (verdict, evidence) = checker.check_with_evidence(&lhs, &rhs, &[0, 1, 2]);
        assert!(verdict.is_refuted());
        assert_eq!(evidence.len(), 3);
        assert!(evidence.iter().any(|e| !e.agreed && e.lhs_normal != e.rhs_normal));
        // Malformed maps are refuted up front with empty evidence.
        let (verdict, evidence) = checker.check_with_evidence(&lhs, &rhs, &[0, 2]);
        assert!(verdict.is_refuted());
        assert!(evidence.is_empty());
    }

    #[test]
    fn direction_reversal_is_equivalent() {
        let mut flipped = Circuit::new(2);
        flipped.h(0).h(1).cx(1, 0).h(0).h(1);
        let mut original = Circuit::new(2);
        original.cx(0, 1);
        assert!(check_equivalence(
            &SymCircuit::from_circuit(&original),
            &SymCircuit::from_circuit(&flipped)
        )
        .is_proved());
    }

    #[test]
    fn conditioned_gates_block_merging() {
        // The §7.1 bug shape: a conditioned u3 is not interchangeable with an
        // unconditioned one.
        let mut lhs = Circuit::with_clbits(1, 1);
        lhs.push(Gate::new(GateKind::U3(0.3, 0.4, 0.5), vec![0]).with_classical_condition(0, true))
            .unwrap();
        let mut rhs = Circuit::new(1);
        rhs.u3(0.3, 0.4, 0.5, 0);
        assert!(check_equivalence(
            &SymCircuit::from_circuit(&lhs),
            &SymCircuit::from_circuit(&rhs)
        )
        .is_refuted());
    }

    #[test]
    fn final_measurements_are_ignored_when_requested() {
        let mut lhs = Circuit::with_clbits(2, 2);
        lhs.h(0).cx(0, 1).measure(0, 0).measure(1, 1);
        let mut rhs = Circuit::with_clbits(2, 2);
        rhs.h(0).cx(0, 1);
        assert!(check_equivalence_up_to_final_measurements(&lhs, &rhs).is_proved());
        // Strict equivalence still sees the measurements.
        assert!(check_equivalence(
            &SymCircuit::from_circuit(&lhs),
            &SymCircuit::from_circuit(&rhs)
        )
        .is_refuted());
    }

    #[test]
    fn barriers_are_transparent() {
        let mut lhs = Circuit::new(2);
        lhs.h(0).barrier_all().cx(0, 1);
        let mut rhs = Circuit::new(2);
        rhs.h(0).cx(0, 1);
        assert!(check_equivalence(
            &SymCircuit::from_circuit(&lhs),
            &SymCircuit::from_circuit(&rhs)
        )
        .is_proved());
    }
}
