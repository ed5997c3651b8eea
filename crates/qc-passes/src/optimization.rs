//! Optimization passes: 1-qubit gate merging, CX cancellation, commutation
//! analysis and cancellation, block collection and consolidation, and the
//! measurement/reset clean-up passes.

use std::collections::VecDeque;

use qc_ir::unitary::gates_commute;
use qc_ir::{DagCircuit, Gate, GateKind, Matrix, QcError};

use crate::pass::{AnalysisValue, PropertySet, TranspilerPass};

/// Decomposes a 2×2 unitary (up to global phase) into `u3(θ, φ, λ)` angles.
///
/// This is the `merge_1q_gate` utility from the paper's §7.1 case study,
/// realised through direct matrix composition instead of quaternions.
///
/// # Panics
///
/// Panics when the matrix is not 2×2.
pub fn u3_angles_from_matrix(m: &Matrix) -> (f64, f64, f64) {
    assert_eq!(m.rows(), 2);
    assert_eq!(m.cols(), 2);
    let m00 = m[(0, 0)];
    let m01 = m[(0, 1)];
    let m10 = m[(1, 0)];
    let m11 = m[(1, 1)];
    let eps = 1e-12;
    let theta = 2.0 * m10.abs().atan2(m00.abs());
    if m10.abs() < eps {
        // Diagonal: all phase goes to λ.
        (0.0, 0.0, m11.arg() - m00.arg())
    } else if m00.abs() < eps {
        // Anti-diagonal.
        (std::f64::consts::PI, m10.arg() - (-m01).arg(), 0.0)
    } else {
        (theta, m10.arg() - m00.arg(), (-m01).arg() - m00.arg())
    }
}

/// Composes a run of single-qubit gates (in circuit order) into one `u3`
/// gate, or `u1`/`u2` when the angles allow.
///
/// # Errors
///
/// Returns an error when any gate in the run has no matrix.
pub fn merge_1q_run(run: &[Gate]) -> Result<GateKind, QcError> {
    let mut m = Matrix::identity(2);
    for gate in run {
        let g = gate.kind.matrix().ok_or_else(|| QcError::NonUnitary(gate.name().to_string()))?;
        m = &g * &m;
    }
    let (theta, phi, lam) = u3_angles_from_matrix(&m);
    let eps = 1e-9;
    if theta.abs() < eps {
        Ok(GateKind::U1(phi + lam))
    } else if (theta - std::f64::consts::FRAC_PI_2).abs() < eps {
        Ok(GateKind::U2(phi, lam))
    } else {
        Ok(GateKind::U3(theta, phi, lam))
    }
}

fn is_mergeable_1q(gate: &Gate) -> bool {
    gate.num_qubits() == 1
        && !gate.is_directive()
        && matches!(
            gate.kind,
            GateKind::U1(_)
                | GateKind::U2(_, _)
                | GateKind::U3(_, _, _)
                | GateKind::RZ(_)
                | GateKind::P(_)
        )
}

/// `Optimize1qGates`: collapse runs of `u1`/`u2`/`u3` gates into a single
/// gate.  [`Optimize1qGates::buggy`] reproduces the §7.1 bug by merging runs
/// even when a gate in the run is conditioned.
#[derive(Debug, Clone)]
pub struct Optimize1qGates {
    respect_conditions: bool,
}

impl Optimize1qGates {
    /// The correct pass: conditioned gates break merge runs.
    pub fn new() -> Self {
        Optimize1qGates { respect_conditions: true }
    }

    /// The buggy Qiskit behaviour from §7.1: conditioned gates are merged as
    /// if they were unconditioned.
    pub fn buggy() -> Self {
        Optimize1qGates { respect_conditions: false }
    }
}

impl Default for Optimize1qGates {
    fn default() -> Self {
        Optimize1qGates::new()
    }
}

impl Optimize1qGates {
    fn run_with_emitter(
        &self,
        dag: &mut DagCircuit,
        emit: &dyn Fn(GateKind, usize) -> Vec<Gate>,
    ) -> Result<(), QcError> {
        let circuit = std::mem::take(dag).into_circuit()?;
        let num_qubits = circuit.num_qubits();
        let mut output = qc_ir::Circuit::with_clbits(num_qubits, circuit.num_clbits());
        output.reserve(circuit.size());
        // Greedily accumulate per-qubit runs while scanning in order.
        let mut pending: Vec<Vec<Gate>> = vec![Vec::new(); num_qubits];
        let flush = |output: &mut qc_ir::Circuit, run: &mut Vec<Gate>| {
            if run.is_empty() {
                return Ok::<(), QcError>(());
            }
            if run.len() == 1 {
                output.push(run.pop().expect("one gate"))?;
            } else {
                let merged = merge_1q_run(run)?;
                let keeps_condition = run.iter().find_map(|g| g.condition);
                for mut gate in emit(merged, run[0].qubits[0]) {
                    // The buggy variant silently drops / merges conditions; the
                    // fixed variant never reaches this point with a condition.
                    gate.condition = keeps_condition;
                    output.push(gate)?;
                }
            }
            run.clear();
            Ok(())
        };
        for gate in circuit.into_gates() {
            let mergeable =
                is_mergeable_1q(&gate) && (!self.respect_conditions || !gate.is_conditioned());
            if mergeable {
                pending[gate.qubits[0]].push(gate);
                continue;
            }
            // Flush every qubit this gate touches (and, for safety, every
            // qubit when the gate is a barrier or measurement).
            if gate.is_directive() {
                for run in &mut pending {
                    flush(&mut output, run)?;
                }
            } else {
                for &q in &gate.qubits {
                    flush(&mut output, &mut pending[q])?;
                }
            }
            output.push(gate)?;
        }
        for run in &mut pending {
            flush(&mut output, run)?;
        }
        *dag = DagCircuit::from_owned(output);
        Ok(())
    }
}

impl TranspilerPass for Optimize1qGates {
    fn name(&self) -> &'static str {
        "Optimize1qGates"
    }
    fn run(&self, dag: &mut DagCircuit, _props: &mut PropertySet) -> Result<(), QcError> {
        self.run_with_emitter(dag, &|kind, qubit| vec![Gate::new(kind, vec![qubit])])
    }
}

/// `Optimize1qGatesDecomposition`: like [`Optimize1qGates`] but re-emits the
/// merged rotation in the `rz`/`ry` Euler basis.
#[derive(Debug, Clone, Default)]
pub struct Optimize1qGatesDecomposition;

impl TranspilerPass for Optimize1qGatesDecomposition {
    fn name(&self) -> &'static str {
        "Optimize1qGatesDecomposition"
    }
    fn run(&self, dag: &mut DagCircuit, _props: &mut PropertySet) -> Result<(), QcError> {
        Optimize1qGates::new().run_with_emitter(dag, &|kind, qubit| match kind {
            GateKind::U3(theta, phi, lam) => vec![
                Gate::new(GateKind::RZ(lam), vec![qubit]),
                Gate::new(GateKind::RY(theta), vec![qubit]),
                Gate::new(GateKind::RZ(phi), vec![qubit]),
            ],
            GateKind::U2(phi, lam) => vec![
                Gate::new(GateKind::RZ(lam), vec![qubit]),
                Gate::new(GateKind::RY(std::f64::consts::FRAC_PI_2), vec![qubit]),
                Gate::new(GateKind::RZ(phi), vec![qubit]),
            ],
            GateKind::U1(lam) => vec![Gate::new(GateKind::RZ(lam), vec![qubit])],
            other => vec![Gate::new(other, vec![qubit])],
        })
    }
}

/// `CXCancellation`: cancel pairs of CNOTs on the same qubit pair when no
/// gate in between shares a qubit with them (Figure 5 of the paper).
#[derive(Debug, Clone, Default)]
pub struct CxCancellation;

impl TranspilerPass for CxCancellation {
    fn name(&self) -> &'static str {
        "CXCancellation"
    }
    fn run(&self, dag: &mut DagCircuit, _props: &mut PropertySet) -> Result<(), QcError> {
        let circuit = std::mem::take(dag).into_circuit()?;
        let mut output = qc_ir::Circuit::with_clbits(circuit.num_qubits(), circuit.num_clbits());
        output.reserve(circuit.size());
        let mut remain: VecDeque<Gate> = circuit.into_gates().into();
        while let Some(gate) = remain.pop_front() {
            if gate.is_cx() && !gate.is_conditioned() {
                // next_gate: first later gate sharing a qubit with `gate`.
                let next = remain.iter().position(|g| g.shares_qubit(&gate));
                match next {
                    Some(j)
                        if remain[j].is_cx()
                            && !remain[j].is_conditioned()
                            && remain[j].same_qubits(&gate) =>
                    {
                        remain.remove(j);
                        // Both CNOTs cancel: emit nothing.
                    }
                    _ => output.push(gate)?,
                }
            } else {
                output.push(gate)?;
            }
        }
        *dag = DagCircuit::from_owned(output);
        Ok(())
    }
}

/// `CommutationAnalysis`: partition the circuit into commutation groups.
/// [`CommutationAnalysis::buggy`] reproduces the §7.2 bug: a gate joins a
/// group as soon as it commutes with *some* gate already in the group,
/// implicitly treating the commutation relation as transitive — which it is
/// not, so the resulting groups need not be pairwise commuting.
#[derive(Debug, Clone)]
pub struct CommutationAnalysis {
    pairwise: bool,
}

impl CommutationAnalysis {
    /// The correct pass: groups are pairwise commuting.
    pub fn new() -> Self {
        CommutationAnalysis { pairwise: true }
    }

    /// The buggy Qiskit behaviour from §7.2.
    pub fn buggy() -> Self {
        CommutationAnalysis { pairwise: false }
    }

    /// Computes the commutation groups of a circuit as index lists.
    pub fn groups(&self, circuit: &qc_ir::Circuit) -> Result<Vec<Vec<usize>>, QcError> {
        let gates = circuit.gates();
        let mut groups: Vec<Vec<usize>> = Vec::new();
        let mut current: Vec<usize> = Vec::new();
        for (i, gate) in gates.iter().enumerate() {
            if gate.is_directive() {
                if !current.is_empty() {
                    groups.push(std::mem::take(&mut current));
                }
                groups.push(vec![i]);
                continue;
            }
            let admissible = if self.pairwise {
                current.iter().all(|&j| gates_commute(&gates[j], gate).unwrap_or(false))
            } else {
                // Buggy: joining requires commuting with *some* group member
                // only — commutation treated as if it were transitive.
                current.is_empty()
                    || current.iter().any(|&j| gates_commute(&gates[j], gate).unwrap_or(false))
            };
            if admissible {
                current.push(i);
            } else {
                if !current.is_empty() {
                    groups.push(std::mem::take(&mut current));
                }
                current.push(i);
            }
        }
        if !current.is_empty() {
            groups.push(current);
        }
        Ok(groups)
    }
}

impl Default for CommutationAnalysis {
    fn default() -> Self {
        CommutationAnalysis::new()
    }
}

impl TranspilerPass for CommutationAnalysis {
    fn name(&self) -> &'static str {
        "CommutationAnalysis"
    }
    fn run(&self, dag: &mut DagCircuit, props: &mut PropertySet) -> Result<(), QcError> {
        let circuit = dag.to_circuit()?;
        let groups = self.groups(&circuit)?;
        props.set("commutation_groups", AnalysisValue::Groups(groups));
        Ok(())
    }
    fn is_analysis(&self) -> bool {
        true
    }
}

/// `CommutativeCancellation`: cancel equal self-inverse gates inside each
/// commutation group.  With the buggy grouping this produces a semantically
/// different circuit on the Figure 9 example.
#[derive(Debug, Clone)]
pub struct CommutativeCancellation {
    analysis: CommutationAnalysis,
}

impl CommutativeCancellation {
    /// The correct pass, built on pairwise-commuting groups.
    pub fn new() -> Self {
        CommutativeCancellation { analysis: CommutationAnalysis::new() }
    }

    /// The buggy pass, built on the non-transitive grouping of §7.2.
    pub fn buggy() -> Self {
        CommutativeCancellation { analysis: CommutationAnalysis::buggy() }
    }
}

impl Default for CommutativeCancellation {
    fn default() -> Self {
        CommutativeCancellation::new()
    }
}

impl TranspilerPass for CommutativeCancellation {
    fn name(&self) -> &'static str {
        "CommutativeCancellation"
    }
    fn run(&self, dag: &mut DagCircuit, _props: &mut PropertySet) -> Result<(), QcError> {
        let circuit = dag.to_circuit()?;
        let groups = self.analysis.groups(&circuit)?;
        let gates = circuit.gates();
        let mut cancelled = vec![false; gates.len()];
        for group in &groups {
            for (pos, &i) in group.iter().enumerate() {
                if cancelled[i] || !gates[i].kind.is_self_inverse() || gates[i].is_conditioned() {
                    continue;
                }
                for &j in &group[pos + 1..] {
                    if !cancelled[j]
                        && gates[j].kind == gates[i].kind
                        && gates[j].same_qubits(&gates[i])
                        && !gates[j].is_conditioned()
                    {
                        cancelled[i] = true;
                        cancelled[j] = true;
                        break;
                    }
                }
            }
        }
        let mut output = qc_ir::Circuit::with_clbits(circuit.num_qubits(), circuit.num_clbits());
        for (i, gate) in gates.iter().enumerate() {
            if !cancelled[i] {
                output.push(gate.clone())?;
            }
        }
        *dag = DagCircuit::from_circuit(&output);
        Ok(())
    }
}

/// `Collect2qBlocks`: group maximal runs of gates confined to one qubit pair.
#[derive(Debug, Clone, Default)]
pub struct Collect2qBlocks;

impl Collect2qBlocks {
    /// Computes the blocks as lists of gate indices.
    pub fn blocks(circuit: &qc_ir::Circuit) -> Vec<Vec<usize>> {
        let gates = circuit.gates();
        let mut assigned = vec![false; gates.len()];
        let mut blocks = Vec::new();
        for i in 0..gates.len() {
            if assigned[i] || gates[i].num_qubits() != 2 || gates[i].is_directive() {
                continue;
            }
            let pair: Vec<usize> = gates[i].qubits.clone();
            let mut block = vec![i];
            assigned[i] = true;
            for (j, gate) in gates.iter().enumerate().skip(i + 1) {
                if assigned[j] {
                    continue;
                }
                let on_pair = !gate.is_directive() && gate.qubits.iter().all(|q| pair.contains(q));
                let touches_pair = gate.qubits.iter().any(|q| pair.contains(q));
                if on_pair {
                    block.push(j);
                    assigned[j] = true;
                } else if touches_pair {
                    break;
                }
            }
            blocks.push(block);
        }
        blocks
    }
}

impl TranspilerPass for Collect2qBlocks {
    fn name(&self) -> &'static str {
        "Collect2qBlocks"
    }
    fn run(&self, dag: &mut DagCircuit, props: &mut PropertySet) -> Result<(), QcError> {
        let circuit = dag.to_circuit()?;
        props.set("block_list", AnalysisValue::Groups(Self::blocks(&circuit)));
        Ok(())
    }
    fn is_analysis(&self) -> bool {
        true
    }
}

/// `ConsolidateBlocks`: replace each collected 2-qubit block whose composed
/// unitary is the identity, a single CNOT, CZ or SWAP with that simpler form.
#[derive(Debug, Clone, Default)]
pub struct ConsolidateBlocks;

fn block_unitary(gates: &[&Gate], pair: &[usize]) -> Option<Matrix> {
    let mut u = Matrix::identity(4);
    for gate in gates {
        if gate.is_conditioned() {
            return None;
        }
        let local: Vec<usize> =
            gate.qubits.iter().map(|q| pair.iter().position(|p| p == q).unwrap()).collect();
        let m = gate.kind.matrix()?;
        let embedded = qc_ir::unitary::embed_gate(&m, &local, 2).ok()?;
        u = &embedded * &u;
    }
    Some(u)
}

impl TranspilerPass for ConsolidateBlocks {
    fn name(&self) -> &'static str {
        "ConsolidateBlocks"
    }
    fn run(&self, dag: &mut DagCircuit, _props: &mut PropertySet) -> Result<(), QcError> {
        let circuit = dag.to_circuit()?;
        let blocks = Collect2qBlocks::blocks(&circuit);
        let gates = circuit.gates();
        let mut replacement: std::collections::BTreeMap<usize, Option<Vec<Gate>>> =
            std::collections::BTreeMap::new();
        for block in &blocks {
            if block.len() < 2 {
                continue;
            }
            let pair = gates[block[0]].qubits.clone();
            let block_gates: Vec<&Gate> = block.iter().map(|&i| &gates[i]).collect();
            let Some(u) = block_unitary(&block_gates, &pair) else { continue };
            let tol = 1e-9;
            let candidates: Vec<(GateKind, Matrix)> = vec![
                (GateKind::CX, GateKind::CX.matrix().unwrap()),
                (GateKind::CZ, GateKind::CZ.matrix().unwrap()),
                (GateKind::Swap, GateKind::Swap.matrix().unwrap()),
            ];
            let chosen: Option<Vec<Gate>> = if u.equal_up_to_global_phase(&Matrix::identity(4), tol)
            {
                Some(Vec::new())
            } else {
                candidates
                    .iter()
                    .find(|(_, m)| u.equal_up_to_global_phase(m, tol))
                    .map(|(kind, _)| vec![Gate::new(*kind, pair.clone())])
            };
            if let Some(gates_out) = chosen {
                // Replace the first index with the consolidated gates and drop
                // the rest of the block.
                replacement.insert(block[0], Some(gates_out));
                for &i in &block[1..] {
                    replacement.insert(i, None);
                }
            }
        }
        let mut output = qc_ir::Circuit::with_clbits(circuit.num_qubits(), circuit.num_clbits());
        for (i, gate) in gates.iter().enumerate() {
            match replacement.get(&i) {
                None => output.push(gate.clone())?,
                Some(None) => {}
                Some(Some(gates_out)) => {
                    for g in gates_out {
                        output.push(g.clone())?;
                    }
                }
            }
        }
        *dag = DagCircuit::from_circuit(&output);
        Ok(())
    }
}

/// `RemoveDiagonalGatesBeforeMeasure`: diagonal gates immediately before a
/// measurement on the same qubit cannot affect the outcome and are removed.
#[derive(Debug, Clone, Default)]
pub struct RemoveDiagonalGatesBeforeMeasure;

impl TranspilerPass for RemoveDiagonalGatesBeforeMeasure {
    fn name(&self) -> &'static str {
        "RemoveDiagonalGatesBeforeMeasure"
    }
    fn run(&self, dag: &mut DagCircuit, _props: &mut PropertySet) -> Result<(), QcError> {
        let circuit = dag.to_circuit()?;
        let gates = circuit.gates();
        let mut removed = vec![false; gates.len()];
        for (i, gate) in gates.iter().enumerate() {
            let diag_1q = gate.num_qubits() == 1
                && gate.kind.is_diagonal()
                && !gate.is_conditioned()
                && !gate.is_directive();
            if !diag_1q {
                continue;
            }
            let q = gate.qubits[0];
            // The next gate touching this qubit must be a measurement.
            let next = gates.iter().enumerate().skip(i + 1).find(|(_, g)| g.qubits.contains(&q));
            if let Some((_, next_gate)) = next {
                if next_gate.kind == GateKind::Measure {
                    removed[i] = true;
                }
            }
        }
        let mut output = qc_ir::Circuit::with_clbits(circuit.num_qubits(), circuit.num_clbits());
        for (i, gate) in gates.iter().enumerate() {
            if !removed[i] {
                output.push(gate.clone())?;
            }
        }
        *dag = DagCircuit::from_circuit(&output);
        Ok(())
    }
}

/// `RemoveResetInZeroState`: a reset acting on a qubit that has not been
/// touched yet is a no-op and is removed.
#[derive(Debug, Clone, Default)]
pub struct RemoveResetInZeroState;

impl TranspilerPass for RemoveResetInZeroState {
    fn name(&self) -> &'static str {
        "RemoveResetInZeroState"
    }
    fn run(&self, dag: &mut DagCircuit, _props: &mut PropertySet) -> Result<(), QcError> {
        let circuit = dag.to_circuit()?;
        let mut touched = vec![false; circuit.num_qubits()];
        let mut output = qc_ir::Circuit::with_clbits(circuit.num_qubits(), circuit.num_clbits());
        for gate in circuit.iter() {
            let removable =
                gate.kind == GateKind::Reset && !gate.is_conditioned() && !touched[gate.qubits[0]];
            if !removable {
                output.push(gate.clone())?;
            }
            if !gate.is_directive() || gate.kind == GateKind::Reset {
                for &q in &gate.qubits {
                    touched[q] = true;
                }
            }
        }
        *dag = DagCircuit::from_circuit(&output);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qc_ir::unitary::{circuit_unitary, circuits_equivalent};
    use qc_ir::Circuit;

    fn apply(pass: &dyn TranspilerPass, circuit: &Circuit) -> Circuit {
        let mut dag = DagCircuit::from_circuit(circuit);
        let mut props = PropertySet::new();
        pass.run(&mut dag, &mut props).unwrap();
        dag.to_circuit().unwrap()
    }

    #[test]
    fn merge_1q_run_matches_matrix_composition() {
        let run = vec![
            Gate::new(GateKind::U1(0.3), vec![0]),
            Gate::new(GateKind::U3(0.7, -0.2, 1.1), vec![0]),
            Gate::new(GateKind::U2(0.5, 0.9), vec![0]),
        ];
        let merged = merge_1q_run(&run).unwrap();
        let mut original = Circuit::new(1);
        for g in &run {
            original.push(g.clone()).unwrap();
        }
        let mut single = Circuit::new(1);
        single.add(merged, &[0]);
        assert!(circuits_equivalent(&original, &single).unwrap());
    }

    #[test]
    fn optimize_1q_gates_shrinks_runs_and_preserves_semantics() {
        let mut c = Circuit::new(2);
        c.u1(0.3, 0).u2(0.1, 0.2, 0).u3(0.4, 0.5, 0.6, 0).cx(0, 1).u1(0.7, 1).u1(0.2, 1);
        let out = apply(&Optimize1qGates::new(), &c);
        assert!(out.size() < c.size());
        assert!(circuits_equivalent(&c, &out).unwrap());
    }

    #[test]
    fn optimize_1q_gates_fixed_respects_conditions_but_buggy_does_not() {
        // Figure 8b: u1(λ1) followed by a *conditioned* u3.
        let mut c = Circuit::with_clbits(1, 1);
        c.u1(0.7, 0);
        c.push(Gate::new(GateKind::U3(0.3, 0.4, 0.5), vec![0]).with_classical_condition(0, true))
            .unwrap();
        let fixed = apply(&Optimize1qGates::new(), &c);
        assert_eq!(fixed, c, "the fixed pass must not merge across conditions");
        let buggy = apply(&Optimize1qGates::buggy(), &c);
        assert!(buggy.size() < c.size());
        assert!(
            !circuits_equivalent(&c, &buggy).unwrap(),
            "the buggy merge changes the semantics (this is the §7.1 bug)"
        );
    }

    #[test]
    fn optimize_1q_decomposition_emits_euler_basis() {
        let mut c = Circuit::new(1);
        c.u2(0.3, 0.1, 0).u3(0.2, 0.4, 0.6, 0);
        let out = apply(&Optimize1qGatesDecomposition, &c);
        assert!(out.iter().all(|g| matches!(g.kind, GateKind::RZ(_) | GateKind::RY(_))));
        assert!(circuits_equivalent(&c, &out).unwrap());
    }

    #[test]
    fn cx_cancellation_matches_figure_5() {
        let mut c = Circuit::new(3);
        c.cx(0, 1); // cancels with the later cx(0,1): only h(2) in between
        c.h(2);
        c.cx(0, 1);
        c.cx(1, 2); // survives
        let out = apply(&CxCancellation, &c);
        assert_eq!(out.count_ops().get("cx"), Some(&1));
        assert!(circuits_equivalent(&c, &out).unwrap());
        // A blocking gate on a shared qubit prevents the cancellation.
        let mut c = Circuit::new(2);
        c.cx(0, 1).z(1).cx(0, 1);
        let out = apply(&CxCancellation, &c);
        assert_eq!(out.count_ops().get("cx"), Some(&2));
    }

    /// The §7.2 counterexample circuit: Z(0) ~ CX, X(1) ~ CX and S(1) is
    /// disjoint from Z(0), so the non-transitive grouping pulls everything
    /// into one group although S(1) and X(1) do not commute.
    fn non_transitive_circuit() -> Circuit {
        let mut c = Circuit::new(2);
        c.z(0).cx(0, 1).x(1).s(1).x(1);
        c
    }

    #[test]
    fn commutation_groups_are_pairwise_commuting() {
        let c = non_transitive_circuit();
        let groups = CommutationAnalysis::new().groups(&c).unwrap();
        for group in &groups {
            for (i, &a) in group.iter().enumerate() {
                for &b in &group[i + 1..] {
                    assert!(gates_commute(&c.gates()[a], &c.gates()[b]).unwrap());
                }
            }
        }
        // The buggy grouping puts non-commuting gates together on this input
        // because commutation is not transitive (§7.2).
        let buggy_groups = CommutationAnalysis::buggy().groups(&c).unwrap();
        let has_non_commuting_group = buggy_groups.iter().any(|group| {
            group.iter().enumerate().any(|(i, &a)| {
                group[i + 1..]
                    .iter()
                    .any(|&b| !gates_commute(&c.gates()[a], &c.gates()[b]).unwrap())
            })
        });
        assert!(has_non_commuting_group, "expected the buggy grouping to be non-transitive");
    }

    #[test]
    fn commutative_cancellation_fixed_is_sound_and_buggy_is_not() {
        let c = non_transitive_circuit();
        let fixed = apply(&CommutativeCancellation::new(), &c);
        assert!(circuits_equivalent(&c, &fixed).unwrap(), "fixed pass must preserve semantics");
        let buggy = apply(&CommutativeCancellation::buggy(), &c);
        // The buggy grouping cancels the two X(1) gates across the S(1) that
        // does not commute with them, changing the semantics (§7.2 bug).
        assert!(buggy.size() < c.size(), "expected the buggy pass to cancel gates");
        assert!(!circuits_equivalent(&c, &buggy).unwrap());
        // A legitimate cancellation is still performed by the fixed pass.
        let mut adjacent = Circuit::new(2);
        adjacent.cx(0, 1).cx(0, 1).h(0);
        let out = apply(&CommutativeCancellation::new(), &adjacent);
        assert_eq!(out.count_ops().get("cx"), None);
        assert!(circuits_equivalent(&adjacent, &out).unwrap());
    }

    #[test]
    fn collect_and_consolidate_blocks() {
        // cx; cz; cx on the same pair composes to something non-trivial; but
        // cx; cx composes to the identity and is removed.
        let mut c = Circuit::new(3);
        c.cx(0, 1).cx(0, 1).h(2).cx(1, 2);
        let blocks = Collect2qBlocks::blocks(&c);
        assert_eq!(blocks.len(), 2);
        assert_eq!(blocks[0], vec![0, 1]);
        let out = apply(&ConsolidateBlocks, &c);
        assert!(circuits_equivalent(&c, &out).unwrap());
        assert_eq!(out.count_ops().get("cx"), Some(&1));
        // h; cx; h on the target is a CZ: consolidation recognises it.
        let mut c = Circuit::new(2);
        c.h(1).cx(0, 1).h(1);
        // Wrap the 1q gates are not part of 2q blocks, so add a detectable
        // block: swap expressed as three CNOTs.
        let mut c2 = Circuit::new(2);
        c2.cx(0, 1).cx(1, 0).cx(0, 1);
        let out2 = apply(&ConsolidateBlocks, &c2);
        assert_eq!(out2.count_ops().get("swap"), Some(&1));
        assert!(circuits_equivalent(&c2, &out2).unwrap());
        let _ = c;
    }

    #[test]
    fn remove_diag_before_measure() {
        let mut c = Circuit::with_clbits(2, 2);
        c.h(0).t(0).measure(0, 0).z(1).h(1).measure(1, 1);
        let out = apply(&RemoveDiagonalGatesBeforeMeasure, &c);
        // t(0) is immediately before a measurement and is dropped; z(1) is
        // followed by h(1) and survives.
        assert!(!out.count_ops().contains_key("t"));
        assert_eq!(out.count_ops().get("z"), Some(&1));
        assert_eq!(out.count_ops().get("measure"), Some(&2));
    }

    #[test]
    fn remove_reset_in_zero_state() {
        let mut c = Circuit::new(2);
        c.reset(0).h(0).reset(0).reset(1);
        let out = apply(&RemoveResetInZeroState, &c);
        let resets = out.count_ops().get("reset").copied().unwrap_or(0);
        assert_eq!(resets, 1, "only the reset after h(0) must survive");
    }

    #[test]
    fn u3_angles_recover_known_gates() {
        for kind in
            [GateKind::H, GateKind::X, GateKind::T, GateKind::SX, GateKind::U3(0.3, 0.7, -0.4)]
        {
            let m = kind.matrix().unwrap();
            let (theta, phi, lam) = u3_angles_from_matrix(&m);
            let mut a = Circuit::new(1);
            a.add(kind, &[0]);
            let mut b = Circuit::new(1);
            b.u3(theta, phi, lam, 0);
            assert!(
                circuit_unitary(&a)
                    .unwrap()
                    .equal_up_to_global_phase(&circuit_unitary(&b).unwrap(), 1e-8),
                "u3 angles wrong for {kind:?}"
            );
        }
    }
}
