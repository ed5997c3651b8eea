//! Basis-change passes: gate decomposition, unrolling, basis translation, and
//! CNOT/gate direction fixing.

use std::collections::BTreeSet;
use std::f64::consts::{FRAC_PI_2, PI};

use qc_ir::{CouplingMap, DagCircuit, Gate, GateKind, QcError};

use crate::pass::{AnalysisValue, PropertySet, TranspilerPass};

/// One level of decomposition of a gate into more primitive gates, on the
/// same qubit operands.  Returns `None` when the gate is already primitive
/// (member of the `{u1, u2, u3, cx}` base set) or is a directive.
///
/// The decompositions form the shared "equivalence library" used by
/// [`Unroller`], [`Decompose`], [`BasisTranslator`] and the Giallar verified
/// utility library; their correctness is checked against the matrix semantics
/// in this module's tests.
pub fn decompose_gate(gate: &Gate) -> Option<Vec<Gate>> {
    let q = &gate.qubits;
    let on = |kind: GateKind, qubits: Vec<usize>| {
        let mut g = Gate::new(kind, qubits);
        g.condition = gate.condition;
        g
    };
    let seq = match gate.kind {
        // 1-qubit standard gates into the u-family.
        GateKind::I => vec![on(GateKind::U1(0.0), vec![q[0]])],
        GateKind::X => vec![on(GateKind::U3(PI, 0.0, PI), vec![q[0]])],
        GateKind::Y => vec![on(GateKind::U3(PI, FRAC_PI_2, FRAC_PI_2), vec![q[0]])],
        GateKind::Z => vec![on(GateKind::U1(PI), vec![q[0]])],
        GateKind::H => vec![on(GateKind::U2(0.0, PI), vec![q[0]])],
        GateKind::S => vec![on(GateKind::U1(FRAC_PI_2), vec![q[0]])],
        GateKind::Sdg => vec![on(GateKind::U1(-FRAC_PI_2), vec![q[0]])],
        GateKind::T => vec![on(GateKind::U1(PI / 4.0), vec![q[0]])],
        GateKind::Tdg => vec![on(GateKind::U1(-PI / 4.0), vec![q[0]])],
        GateKind::SX => vec![on(GateKind::U2(-FRAC_PI_2, FRAC_PI_2), vec![q[0]])],
        GateKind::SXdg => vec![on(GateKind::U2(FRAC_PI_2, -FRAC_PI_2), vec![q[0]])],
        GateKind::RX(theta) => vec![on(GateKind::U3(theta, -FRAC_PI_2, FRAC_PI_2), vec![q[0]])],
        GateKind::RY(theta) => vec![on(GateKind::U3(theta, 0.0, 0.0), vec![q[0]])],
        GateKind::RZ(phi) => vec![on(GateKind::U1(phi), vec![q[0]])],
        GateKind::P(lam) => vec![on(GateKind::U1(lam), vec![q[0]])],
        // 2-qubit gates into CX + 1-qubit gates.
        GateKind::CY => vec![
            on(GateKind::Sdg, vec![q[1]]),
            on(GateKind::CX, vec![q[0], q[1]]),
            on(GateKind::S, vec![q[1]]),
        ],
        GateKind::CZ => vec![
            on(GateKind::H, vec![q[1]]),
            on(GateKind::CX, vec![q[0], q[1]]),
            on(GateKind::H, vec![q[1]]),
        ],
        GateKind::CH => vec![
            // Standard qelib1 definition of the controlled-Hadamard.
            on(GateKind::H, vec![q[1]]),
            on(GateKind::Sdg, vec![q[1]]),
            on(GateKind::CX, vec![q[0], q[1]]),
            on(GateKind::H, vec![q[1]]),
            on(GateKind::T, vec![q[1]]),
            on(GateKind::CX, vec![q[0], q[1]]),
            on(GateKind::T, vec![q[1]]),
            on(GateKind::H, vec![q[1]]),
            on(GateKind::S, vec![q[1]]),
            on(GateKind::X, vec![q[1]]),
            on(GateKind::S, vec![q[0]]),
        ],
        GateKind::Swap => vec![
            on(GateKind::CX, vec![q[0], q[1]]),
            on(GateKind::CX, vec![q[1], q[0]]),
            on(GateKind::CX, vec![q[0], q[1]]),
        ],
        GateKind::CP(lam) => vec![
            on(GateKind::U1(lam / 2.0), vec![q[0]]),
            on(GateKind::CX, vec![q[0], q[1]]),
            on(GateKind::U1(-lam / 2.0), vec![q[1]]),
            on(GateKind::CX, vec![q[0], q[1]]),
            on(GateKind::U1(lam / 2.0), vec![q[1]]),
        ],
        GateKind::CRZ(theta) => vec![
            on(GateKind::U1(theta / 2.0), vec![q[1]]),
            on(GateKind::CX, vec![q[0], q[1]]),
            on(GateKind::U1(-theta / 2.0), vec![q[1]]),
            on(GateKind::CX, vec![q[0], q[1]]),
        ],
        GateKind::RZZ(theta) => vec![
            on(GateKind::CX, vec![q[0], q[1]]),
            on(GateKind::U1(theta), vec![q[1]]),
            on(GateKind::CX, vec![q[0], q[1]]),
        ],
        // 3-qubit gates.
        GateKind::CCX => vec![
            on(GateKind::H, vec![q[2]]),
            on(GateKind::CX, vec![q[1], q[2]]),
            on(GateKind::Tdg, vec![q[2]]),
            on(GateKind::CX, vec![q[0], q[2]]),
            on(GateKind::T, vec![q[2]]),
            on(GateKind::CX, vec![q[1], q[2]]),
            on(GateKind::Tdg, vec![q[2]]),
            on(GateKind::CX, vec![q[0], q[2]]),
            on(GateKind::T, vec![q[1]]),
            on(GateKind::T, vec![q[2]]),
            on(GateKind::H, vec![q[2]]),
            on(GateKind::CX, vec![q[0], q[1]]),
            on(GateKind::T, vec![q[0]]),
            on(GateKind::Tdg, vec![q[1]]),
            on(GateKind::CX, vec![q[0], q[1]]),
        ],
        GateKind::CSwap => vec![
            on(GateKind::CX, vec![q[2], q[1]]),
            on(GateKind::CCX, vec![q[0], q[1], q[2]]),
            on(GateKind::CX, vec![q[2], q[1]]),
        ],
        GateKind::U1(_)
        | GateKind::U2(_, _)
        | GateKind::U3(_, _, _)
        | GateKind::CX
        | GateKind::Ecr
        | GateKind::Barrier
        | GateKind::Measure
        | GateKind::Reset => return None,
    };
    Some(seq)
}

/// Recursively unrolls a gate until every emitted gate's name is in `basis`
/// (directives always pass through).
fn unroll_into(gate: Gate, basis: &BTreeSet<String>, out: &mut Vec<Gate>) -> Result<(), QcError> {
    if gate.is_directive() || basis.contains(gate.name()) {
        out.push(gate);
        return Ok(());
    }
    match decompose_gate(&gate) {
        Some(parts) => {
            for part in parts {
                unroll_into(part, basis, out)?;
            }
            Ok(())
        }
        None => Err(QcError::Unsupported(format!(
            "gate `{}` cannot be decomposed into the target basis",
            gate.name()
        ))),
    }
}

fn rebuild(dag: &mut DagCircuit, gates: Vec<Gate>, num_qubits: usize, num_clbits: usize) {
    let mut circuit = qc_ir::Circuit::with_clbits(num_qubits, num_clbits);
    circuit.reserve(gates.len());
    for gate in gates {
        circuit.append(gate);
    }
    *dag = DagCircuit::from_owned(circuit);
}

/// `Unroller`: decompose every gate into a target basis (default
/// `{u1, u2, u3, cx}`).
#[derive(Debug, Clone)]
pub struct Unroller {
    basis: BTreeSet<String>,
}

impl Unroller {
    /// Creates an unroller for the given basis gate names.
    pub fn new(basis: &[&str]) -> Self {
        Unroller { basis: basis.iter().map(|s| s.to_string()).collect() }
    }

    /// The default IBM basis `{u1, u2, u3, cx}`.
    pub fn ibm_basis() -> Self {
        Unroller::new(&["u1", "u2", "u3", "cx"])
    }
}

impl TranspilerPass for Unroller {
    fn name(&self) -> &'static str {
        "Unroller"
    }
    fn run(&self, dag: &mut DagCircuit, _props: &mut PropertySet) -> Result<(), QcError> {
        let circuit = std::mem::take(dag).into_circuit()?;
        let (num_qubits, num_clbits) = (circuit.num_qubits(), circuit.num_clbits());
        let mut gates = Vec::with_capacity(circuit.size());
        for gate in circuit.into_gates() {
            unroll_into(gate, &self.basis, &mut gates)?;
        }
        rebuild(dag, gates, num_qubits, num_clbits);
        Ok(())
    }
}

/// `UnrollCustomDefinitions`: identical mechanism to [`Unroller`] but keeps
/// any gate that already has a definition in the equivalence library.
#[derive(Debug, Clone)]
pub struct UnrollCustomDefinitions {
    basis: BTreeSet<String>,
}

impl UnrollCustomDefinitions {
    /// Creates the pass for the given basis.
    pub fn new(basis: &[&str]) -> Self {
        UnrollCustomDefinitions { basis: basis.iter().map(|s| s.to_string()).collect() }
    }
}

impl TranspilerPass for UnrollCustomDefinitions {
    fn name(&self) -> &'static str {
        "UnrollCustomDefinitions"
    }
    fn run(&self, dag: &mut DagCircuit, props: &mut PropertySet) -> Result<(), QcError> {
        Unroller { basis: self.basis.clone() }.run(dag, props)
    }
}

/// `BasisTranslator`: translate into a target basis via the equivalence
/// library (same decomposition engine, different entry point in Qiskit).
#[derive(Debug, Clone)]
pub struct BasisTranslator {
    basis: BTreeSet<String>,
}

impl BasisTranslator {
    /// Creates the pass for the given target basis.
    pub fn new(basis: &[&str]) -> Self {
        BasisTranslator { basis: basis.iter().map(|s| s.to_string()).collect() }
    }
}

impl TranspilerPass for BasisTranslator {
    fn name(&self) -> &'static str {
        "BasisTranslator"
    }
    fn run(&self, dag: &mut DagCircuit, props: &mut PropertySet) -> Result<(), QcError> {
        Unroller { basis: self.basis.clone() }.run(dag, props)
    }
}

/// `Decompose`: decompose one level of the named gate only.
#[derive(Debug, Clone)]
pub struct Decompose {
    gate_name: String,
}

impl Decompose {
    /// Creates the pass targeting a specific gate name.
    pub fn new(gate_name: &str) -> Self {
        Decompose { gate_name: gate_name.to_string() }
    }
}

impl TranspilerPass for Decompose {
    fn name(&self) -> &'static str {
        "Decompose"
    }
    fn run(&self, dag: &mut DagCircuit, _props: &mut PropertySet) -> Result<(), QcError> {
        let circuit = dag.to_circuit()?;
        let mut gates = Vec::new();
        for gate in circuit.iter() {
            if gate.name() == self.gate_name {
                match decompose_gate(gate) {
                    Some(parts) => gates.extend(parts),
                    None => gates.push(gate.clone()),
                }
            } else {
                gates.push(gate.clone());
            }
        }
        rebuild(dag, gates, circuit.num_qubits(), circuit.num_clbits());
        Ok(())
    }
}

/// `Unroll3qOrMore`: decompose every gate acting on three or more qubits into
/// 1- and 2-qubit gates.
#[derive(Debug, Clone, Default)]
pub struct Unroll3qOrMore;

impl TranspilerPass for Unroll3qOrMore {
    fn name(&self) -> &'static str {
        "Unroll3qOrMore"
    }
    fn run(&self, dag: &mut DagCircuit, _props: &mut PropertySet) -> Result<(), QcError> {
        let circuit = dag.to_circuit()?;
        let mut gates = Vec::new();
        fn expand(gate: &Gate, out: &mut Vec<Gate>) -> Result<(), QcError> {
            if gate.num_qubits() < 3 || gate.is_directive() {
                out.push(gate.clone());
                return Ok(());
            }
            let parts = decompose_gate(gate)
                .ok_or_else(|| QcError::Unsupported(format!("cannot decompose {}", gate.name())))?;
            for part in parts {
                expand(&part, out)?;
            }
            Ok(())
        }
        for gate in circuit.iter() {
            expand(gate, &mut gates)?;
        }
        rebuild(dag, gates, circuit.num_qubits(), circuit.num_clbits());
        Ok(())
    }
}

/// `GateDirection`: flip 2-qubit gates whose direction is not native by
/// conjugating with Hadamards (CX) — CZ and SWAP are symmetric and only need
/// their operands exchanged.
#[derive(Debug, Clone)]
pub struct GateDirection {
    coupling: CouplingMap,
}

impl GateDirection {
    /// Creates the pass for a device.
    pub fn new(coupling: CouplingMap) -> Self {
        GateDirection { coupling }
    }
}

impl TranspilerPass for GateDirection {
    fn name(&self) -> &'static str {
        "GateDirection"
    }
    fn run(&self, dag: &mut DagCircuit, _props: &mut PropertySet) -> Result<(), QcError> {
        let circuit = std::mem::take(dag).into_circuit()?;
        let (num_qubits, num_clbits) = (circuit.num_qubits(), circuit.num_clbits());
        let mut gates = Vec::with_capacity(circuit.size());
        for gate in circuit.into_gates() {
            let flip = gate.num_qubits() == 2
                && !gate.is_directive()
                && !self.coupling.has_directed_edge(gate.qubits[0], gate.qubits[1])
                && self.coupling.has_directed_edge(gate.qubits[1], gate.qubits[0]);
            if !flip {
                gates.push(gate);
                continue;
            }
            let (a, b) = (gate.qubits[0], gate.qubits[1]);
            match gate.kind {
                GateKind::CX => {
                    gates.push(Gate::new(GateKind::H, vec![a]));
                    gates.push(Gate::new(GateKind::H, vec![b]));
                    gates.push(Gate::new(GateKind::CX, vec![b, a]));
                    gates.push(Gate::new(GateKind::H, vec![a]));
                    gates.push(Gate::new(GateKind::H, vec![b]));
                }
                GateKind::CZ => gates.push(Gate::new(GateKind::CZ, vec![b, a])),
                GateKind::Swap => gates.push(Gate::new(GateKind::Swap, vec![b, a])),
                _ => gates.push(gate),
            }
        }
        rebuild(dag, gates, num_qubits, num_clbits);
        Ok(())
    }
}

/// `CXDirection`: the historical CX-only variant of [`GateDirection`].
#[derive(Debug, Clone)]
pub struct CxDirection {
    coupling: CouplingMap,
}

impl CxDirection {
    /// Creates the pass for a device.
    pub fn new(coupling: CouplingMap) -> Self {
        CxDirection { coupling }
    }
}

impl TranspilerPass for CxDirection {
    fn name(&self) -> &'static str {
        "CXDirection"
    }
    fn run(&self, dag: &mut DagCircuit, props: &mut PropertySet) -> Result<(), QcError> {
        GateDirection { coupling: self.coupling.clone() }.run(dag, props)
    }
}

/// `CheckGateDirection`: analysis pass recording whether every 2-qubit gate
/// already follows a native direction.
#[derive(Debug, Clone)]
pub struct CheckGateDirection {
    coupling: CouplingMap,
}

impl CheckGateDirection {
    /// Creates the pass for a device.
    pub fn new(coupling: CouplingMap) -> Self {
        CheckGateDirection { coupling }
    }
}

impl TranspilerPass for CheckGateDirection {
    fn name(&self) -> &'static str {
        "CheckGateDirection"
    }
    fn run(&self, dag: &mut DagCircuit, props: &mut PropertySet) -> Result<(), QcError> {
        let ok = dag.topological_op_nodes().iter().all(|&node| {
            let gate = dag.gate(node);
            gate.num_qubits() != 2
                || gate.is_directive()
                || self.coupling.has_directed_edge(gate.qubits[0], gate.qubits[1])
        });
        props.set("is_direction_mapped", AnalysisValue::Bool(ok));
        Ok(())
    }
    fn is_analysis(&self) -> bool {
        true
    }
}

/// `CheckCXDirection`: historical alias of [`CheckGateDirection`].
#[derive(Debug, Clone)]
pub struct CheckCxDirection {
    coupling: CouplingMap,
}

impl CheckCxDirection {
    /// Creates the pass for a device.
    pub fn new(coupling: CouplingMap) -> Self {
        CheckCxDirection { coupling }
    }
}

impl TranspilerPass for CheckCxDirection {
    fn name(&self) -> &'static str {
        "CheckCXDirection"
    }
    fn run(&self, dag: &mut DagCircuit, props: &mut PropertySet) -> Result<(), QcError> {
        CheckGateDirection { coupling: self.coupling.clone() }.run(dag, props)
    }
    fn is_analysis(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qc_ir::unitary::circuits_equivalent;
    use qc_ir::Circuit;

    /// Every decomposition in the library must be a unitary equality.
    #[test]
    fn decomposition_library_is_sound() {
        let samples: Vec<Gate> = vec![
            Gate::new(GateKind::I, vec![0]),
            Gate::new(GateKind::X, vec![0]),
            Gate::new(GateKind::Y, vec![0]),
            Gate::new(GateKind::Z, vec![0]),
            Gate::new(GateKind::H, vec![0]),
            Gate::new(GateKind::S, vec![0]),
            Gate::new(GateKind::Sdg, vec![0]),
            Gate::new(GateKind::T, vec![0]),
            Gate::new(GateKind::Tdg, vec![0]),
            Gate::new(GateKind::SX, vec![0]),
            Gate::new(GateKind::SXdg, vec![0]),
            Gate::new(GateKind::RX(0.7), vec![0]),
            Gate::new(GateKind::RY(-1.2), vec![0]),
            Gate::new(GateKind::RZ(0.4), vec![0]),
            Gate::new(GateKind::P(1.3), vec![0]),
            Gate::new(GateKind::CY, vec![0, 1]),
            Gate::new(GateKind::CZ, vec![0, 1]),
            Gate::new(GateKind::CH, vec![0, 1]),
            Gate::new(GateKind::Swap, vec![0, 1]),
            Gate::new(GateKind::CP(0.9), vec![0, 1]),
            Gate::new(GateKind::CRZ(-0.6), vec![0, 1]),
            Gate::new(GateKind::RZZ(0.8), vec![0, 1]),
            Gate::new(GateKind::CCX, vec![0, 1, 2]),
            Gate::new(GateKind::CSwap, vec![0, 1, 2]),
        ];
        for gate in samples {
            let n = gate.num_qubits();
            let mut original = Circuit::new(n);
            original.push(gate.clone()).unwrap();
            let parts =
                decompose_gate(&gate).unwrap_or_else(|| panic!("{} should decompose", gate.name()));
            let mut decomposed = Circuit::new(n);
            for part in parts {
                decomposed.push(part).unwrap();
            }
            assert!(
                circuits_equivalent(&original, &decomposed).unwrap(),
                "decomposition of {} is not equivalent",
                gate.name()
            );
        }
    }

    #[test]
    fn unroller_reaches_the_ibm_basis() {
        let mut c = Circuit::new(3);
        c.h(0).t(1).ccx(0, 1, 2).swap(1, 2).s(2);
        let mut dag = DagCircuit::from_circuit(&c);
        let mut props = PropertySet::new();
        Unroller::ibm_basis().run(&mut dag, &mut props).unwrap();
        let unrolled = dag.to_circuit().unwrap();
        let basis: BTreeSet<&str> = ["u1", "u2", "u3", "cx", "barrier", "measure"].into();
        for gate in unrolled.iter() {
            assert!(basis.contains(gate.name()), "gate {} left over", gate.name());
        }
        assert!(circuits_equivalent(&c, &unrolled).unwrap());
    }

    #[test]
    fn unroll_3q_or_more_keeps_small_gates() {
        let mut c = Circuit::new(3);
        c.h(0).ccx(0, 1, 2).cx(0, 1);
        let mut dag = DagCircuit::from_circuit(&c);
        let mut props = PropertySet::new();
        Unroll3qOrMore.run(&mut dag, &mut props).unwrap();
        let out = dag.to_circuit().unwrap();
        assert!(out.iter().all(|g| g.num_qubits() <= 2));
        assert!(circuits_equivalent(&c, &out).unwrap());
        // h and the final cx survive untouched.
        assert_eq!(out.gates()[0].kind, GateKind::H);
    }

    #[test]
    fn decompose_targets_a_single_gate_name() {
        let mut c = Circuit::new(2);
        c.swap(0, 1).h(0);
        let mut dag = DagCircuit::from_circuit(&c);
        let mut props = PropertySet::new();
        Decompose::new("swap").run(&mut dag, &mut props).unwrap();
        let out = dag.to_circuit().unwrap();
        assert_eq!(out.count_ops().get("cx"), Some(&3));
        assert_eq!(out.count_ops().get("h"), Some(&1));
        assert!(!out.count_ops().contains_key("swap"));
    }

    #[test]
    fn gate_direction_flips_non_native_cx() {
        // Only the edge (1, 0) is native.
        let coupling = CouplingMap::from_edges(2, &[(1, 0)]).unwrap();
        let mut c = Circuit::new(2);
        c.cx(0, 1);
        let mut dag = DagCircuit::from_circuit(&c);
        let mut props = PropertySet::new();
        CheckCxDirection::new(coupling.clone()).run(&mut dag, &mut props).unwrap();
        assert_eq!(props.get_bool("is_direction_mapped"), Some(false));
        GateDirection::new(coupling.clone()).run(&mut dag, &mut props).unwrap();
        let flipped = dag.to_circuit().unwrap();
        assert!(circuits_equivalent(&c, &flipped).unwrap());
        CheckGateDirection::new(coupling).run(&mut dag, &mut props).unwrap();
        assert_eq!(props.get_bool("is_direction_mapped"), Some(true));
    }

    #[test]
    fn unroller_rejects_unknown_targets() {
        let mut c = Circuit::with_clbits(1, 1);
        c.measure(0, 0);
        // Measure passes through any basis.
        let mut dag = DagCircuit::from_circuit(&c);
        let mut props = PropertySet::new();
        Unroller::new(&["cx"]).run(&mut dag, &mut props).unwrap();
        // But a unitary gate with no decomposition into the basis fails.
        let mut c = Circuit::new(1);
        c.u3(0.1, 0.2, 0.3, 0);
        let mut dag = DagCircuit::from_circuit(&c);
        assert!(Unroller::new(&["cx"]).run(&mut dag, &mut props).is_err());
    }

    #[test]
    fn basis_translator_and_custom_definitions_agree_with_unroller() {
        let mut c = Circuit::new(2);
        c.h(0).cz(0, 1).t(1);
        let run = |pass: &dyn TranspilerPass| {
            let mut dag = DagCircuit::from_circuit(&c);
            let mut props = PropertySet::new();
            pass.run(&mut dag, &mut props).unwrap();
            dag.to_circuit().unwrap()
        };
        let a = run(&Unroller::ibm_basis());
        let b = run(&BasisTranslator::new(&["u1", "u2", "u3", "cx"]));
        let d = run(&UnrollCustomDefinitions::new(&["u1", "u2", "u3", "cx"]));
        assert_eq!(a, b);
        assert_eq!(a, d);
    }
}
