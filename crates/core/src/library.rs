//! The verified utility library (§4, "Utility function calls").
//!
//! The paper verifies a small library of shared utility functions once and
//! for all in Coq and replaces their invocations by their specifications
//! during symbolic execution.  Here each utility is paired with an explicit,
//! executable specification checker; the checkers are exercised exhaustively
//! and by property-based tests (see `tests/` at the workspace root), which is
//! the offline substitute for the Coq proofs.

use qc_ir::unitary::{circuit_unitary, circuits_equivalent};
use qc_ir::{Circuit, CouplingMap, Gate, GateKind, QcError};
use qc_passes::basis::decompose_gate;
use qc_passes::optimization::merge_1q_run;

/// `next_gate(circ, index)`: index of the first later gate sharing a qubit
/// with the gate at `index` (the specification of §3/§4 of the paper).
pub fn next_gate(circuit: &Circuit, index: usize) -> Option<usize> {
    circuit.next_shared_gate(index)
}

/// Checks the four clauses of the `next_gate` specification for a concrete
/// circuit and index; returns `false` if any clause is violated.
pub fn next_gate_spec_holds(circuit: &Circuit, index: usize) -> bool {
    let Some(gate) = circuit.get(index) else { return true };
    match next_gate(circuit, index) {
        None => {
            // No later gate shares a qubit.
            (index + 1..circuit.size()).all(|j| !circuit.gates()[j].shares_qubit(gate))
        }
        Some(x) => {
            // 1) x is a valid index; 2) x is after index; 3) nothing in between
            // shares a qubit; 4) gate x shares a qubit.
            x < circuit.size()
                && x > index
                && (index + 1..x).all(|j| !circuit.gates()[j].shares_qubit(gate))
                && circuit.gates()[x].shares_qubit(gate)
        }
    }
}

/// `shortest_path(coupling, a, b)`: the verified routing utility.
pub fn shortest_path(coupling: &CouplingMap, a: usize, b: usize) -> Option<Vec<usize>> {
    coupling.shortest_path(a, b)
}

/// Checks the `shortest_path` specification: the path starts at `a`, ends at
/// `b`, every hop is a coupling edge, and no shorter path exists (verified
/// against the BFS distance).
pub fn shortest_path_spec_holds(coupling: &CouplingMap, a: usize, b: usize) -> bool {
    match shortest_path(coupling, a, b) {
        None => coupling.distance(a, b).is_none(),
        Some(path) => {
            path.first() == Some(&a)
                && path.last() == Some(&b)
                && path.windows(2).all(|w| coupling.connected(w[0], w[1]))
                && coupling.distance(a, b) == Some(path.len() - 1)
        }
    }
}

/// `merge_1q_gate(run)`: the verified 1-qubit merge utility (§7.1); returns
/// the merged gate kind.
///
/// # Errors
///
/// Returns an error when a gate in the run has no matrix.
pub fn merge_1q_gate(run: &[Gate]) -> Result<GateKind, QcError> {
    merge_1q_run(run)
}

/// Checks the `merge_1q_gate` specification: the merged gate is equivalent to
/// the whole run (and the run must not contain conditioned gates — that
/// precondition is exactly what the buggy Qiskit pass violated).
pub fn merge_1q_spec_holds(run: &[Gate]) -> bool {
    if run.iter().any(Gate::is_conditioned) {
        return false;
    }
    let Ok(merged) = merge_1q_gate(run) else { return false };
    let qubit = run.first().map(|g| g.qubits[0]).unwrap_or(0);
    let mut original = Circuit::new(1);
    for gate in run {
        let mut g = gate.clone();
        g.qubits = vec![0];
        if original.push(g).is_err() {
            return false;
        }
    }
    let mut single = Circuit::new(1);
    single.add(merged, &[0]);
    let _ = qubit;
    circuits_equivalent(&original, &single).unwrap_or(false)
}

/// `decompose(gate)`: the verified decomposition library shared with the
/// basis-change passes.
pub fn decompose(gate: &Gate) -> Option<Vec<Gate>> {
    decompose_gate(gate)
}

/// Checks the decomposition specification: the emitted gates are equivalent
/// to the original gate.
pub fn decompose_spec_holds(gate: &Gate) -> bool {
    match decompose(gate) {
        None => true,
        Some(parts) => {
            let n = gate.num_qubits();
            let mut original = Circuit::new(n);
            if original.push(gate.clone()).is_err() {
                return false;
            }
            let mut replaced = Circuit::new(n);
            for part in parts {
                if replaced.push(part).is_err() {
                    return false;
                }
            }
            circuits_equivalent(&original, &replaced).unwrap_or(false)
        }
    }
}

/// The verified-library fact behind `RemoveDiagonalGatesBeforeMeasure`: a
/// diagonal gate applied right before a computational-basis measurement does
/// not change the measurement statistics.  Checked numerically on every
/// computational basis state.
pub fn diagonal_gate_preserves_measurement(kind: GateKind) -> bool {
    if !kind.is_diagonal() {
        return false;
    }
    let n = kind.arity().max(1);
    let mut circuit = Circuit::new(n);
    circuit.add(kind, &(0..n).collect::<Vec<_>>());
    let Ok(u) = circuit_unitary(&circuit) else { return false };
    // A diagonal unitary maps each basis state to a phase times itself, so
    // every column must have unit magnitude on the diagonal.
    (0..u.rows()).all(|i| (u[(i, i)].abs() - 1.0).abs() < 1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn next_gate_spec_on_the_figure_5_shape() {
        let mut c = Circuit::new(3);
        c.cx(0, 1).h(2).cx(0, 1).cx(1, 2);
        for i in 0..c.size() {
            assert!(next_gate_spec_holds(&c, i), "spec fails at index {i}");
        }
        assert_eq!(next_gate(&c, 0), Some(2));
    }

    #[test]
    fn shortest_path_spec_on_standard_devices() {
        for coupling in [CouplingMap::line(6), CouplingMap::ring(7), CouplingMap::ibm16()] {
            for a in 0..coupling.num_qubits() {
                for b in 0..coupling.num_qubits() {
                    assert!(shortest_path_spec_holds(&coupling, a, b));
                }
            }
        }
    }

    #[test]
    fn merge_spec_holds_for_unconditioned_runs_only() {
        let run = vec![
            Gate::new(GateKind::U1(0.2), vec![0]),
            Gate::new(GateKind::U2(0.3, 0.4), vec![0]),
            Gate::new(GateKind::U3(0.5, 0.6, 0.7), vec![0]),
        ];
        assert!(merge_1q_spec_holds(&run));
        let mut conditioned = run.clone();
        conditioned[1] = conditioned[1].clone().with_classical_condition(0, true);
        assert!(!merge_1q_spec_holds(&conditioned));
    }

    #[test]
    fn decompose_spec_holds_for_the_whole_library() {
        let samples = vec![
            Gate::new(GateKind::H, vec![0]),
            Gate::new(GateKind::S, vec![0]),
            Gate::new(GateKind::CZ, vec![0, 1]),
            Gate::new(GateKind::Swap, vec![0, 1]),
            Gate::new(GateKind::Ecr, vec![0, 1]),
            Gate::new(GateKind::Ecr, vec![1, 0]),
            Gate::new(GateKind::CCX, vec![0, 1, 2]),
        ];
        for gate in samples {
            assert!(decompose_spec_holds(&gate), "decomposition spec fails for {}", gate.name());
        }
    }

    #[test]
    fn diagonal_measurement_fact() {
        assert!(diagonal_gate_preserves_measurement(GateKind::Z));
        assert!(diagonal_gate_preserves_measurement(GateKind::T));
        assert!(diagonal_gate_preserves_measurement(GateKind::RZ(0.3)));
        assert!(diagonal_gate_preserves_measurement(GateKind::CZ));
        assert!(!diagonal_gate_preserves_measurement(GateKind::H));
        assert!(!diagonal_gate_preserves_measurement(GateKind::X));
    }
}
