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
/// [`Unroller`] (also as `BasisTranslator`), [`Decompose`] and the Giallar verified
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
        // Qiskit's `rzx(π/4) a,b; x a; rzx(-π/4) a,b`, each
        // `rzx(θ) a,b = h b; cx a,b; rz(θ) b; cx a,b; h b`; the two inner
        // `h b` cancel around `x a`.
        GateKind::Ecr => vec![
            on(GateKind::H, vec![q[1]]),
            on(GateKind::CX, vec![q[0], q[1]]),
            on(GateKind::RZ(PI / 4.0), vec![q[1]]),
            on(GateKind::CX, vec![q[0], q[1]]),
            on(GateKind::X, vec![q[0]]),
            on(GateKind::CX, vec![q[0], q[1]]),
            on(GateKind::RZ(-PI / 4.0), vec![q[1]]),
            on(GateKind::CX, vec![q[0], q[1]]),
            on(GateKind::H, vec![q[1]]),
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

/// `Unroller`: decompose every gate into a target basis.
#[derive(Debug, Clone)]
pub struct Unroller {
    name: &'static str,
    basis: BTreeSet<String>,
}

impl Unroller {
    /// Creates an unroller for the given basis gate names.
    pub fn new(basis: &[&str]) -> Self {
        Unroller::named("Unroller", basis)
    }

    /// The same pass under another Qiskit name: `UnrollCustomDefinitions`
    /// and `BasisTranslator` reach the target basis through the same
    /// decomposition library, from different entry points in Qiskit.
    pub fn named(name: &'static str, basis: &[&str]) -> Self {
        Unroller { name, basis: basis.iter().map(|s| s.to_string()).collect() }
    }
}

impl TranspilerPass for Unroller {
    fn name(&self) -> &'static str {
        self.name
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
/// their operands exchanged.  Any other 2-qubit gate that needs a flip is an
/// [`QcError::Unsupported`] error, as in Qiskit: the pass would otherwise
/// emit a gate its own `CheckGateDirection` rejects.
#[derive(Debug, Clone)]
pub struct GateDirection {
    name: &'static str,
    coupling: CouplingMap,
}

impl GateDirection {
    /// Creates the pass for a device.
    pub fn new(coupling: CouplingMap) -> Self {
        GateDirection::named("GateDirection", coupling)
    }

    /// The same pass under another Qiskit name: `CXDirection` is its
    /// historical CX-only variant.
    pub fn named(name: &'static str, coupling: CouplingMap) -> Self {
        GateDirection { name, coupling }
    }
}

impl TranspilerPass for GateDirection {
    fn name(&self) -> &'static str {
        self.name
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
                // Every gate of the replacement carries the original's
                // condition, as Qiskit's `substitute_node_with_dag` does.
                GateKind::CX => {
                    let condition = gate.condition;
                    for (kind, qubits) in [
                        (GateKind::H, vec![a]),
                        (GateKind::H, vec![b]),
                        (GateKind::CX, vec![b, a]),
                        (GateKind::H, vec![a]),
                        (GateKind::H, vec![b]),
                    ] {
                        gates.push(Gate { condition, ..Gate::new(kind, qubits) });
                    }
                }
                GateKind::CZ | GateKind::Swap => {
                    let mut flipped = gate;
                    flipped.qubits.swap(0, 1);
                    gates.push(flipped);
                }
                _ => {
                    return Err(QcError::Unsupported(format!(
                        "{} cannot flip `{}` on ({a}, {b})",
                        self.name,
                        gate.name()
                    )))
                }
            }
        }
        rebuild(dag, gates, num_qubits, num_clbits);
        Ok(())
    }
}

/// `CheckGateDirection`: analysis pass recording whether every 2-qubit gate
/// already follows a native direction.
#[derive(Debug, Clone)]
pub struct CheckGateDirection {
    name: &'static str,
    coupling: CouplingMap,
}

impl CheckGateDirection {
    /// Creates the pass for a device.
    pub fn new(coupling: CouplingMap) -> Self {
        CheckGateDirection::named("CheckGateDirection", coupling)
    }

    /// The same pass under another Qiskit name: `CheckCXDirection` is its
    /// historical alias.
    pub fn named(name: &'static str, coupling: CouplingMap) -> Self {
        CheckGateDirection { name, coupling }
    }
}

impl TranspilerPass for CheckGateDirection {
    fn name(&self) -> &'static str {
        self.name
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

#[cfg(test)]
mod tests {
    use super::*;
    use qc_ir::unitary::circuits_equivalent;
    use qc_ir::{Circuit, Condition};

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
        Unroller::new(&["u1", "u2", "u3", "cx"]).run(&mut dag, &mut props).unwrap();
        let unrolled = dag.to_circuit().unwrap();
        let basis: BTreeSet<&str> = ["u1", "u2", "u3", "cx", "barrier", "measure"].into();
        for gate in unrolled.iter() {
            assert!(basis.contains(gate.name()), "gate {} left over", gate.name());
        }
        assert!(circuits_equivalent(&c, &unrolled).unwrap());
    }

    #[test]
    fn gate_direction_keeps_the_condition_of_a_flipped_gate() {
        let device = CouplingMap::from_edges(2, &[(0, 1)]).unwrap();
        let flipped = [(GateKind::CX, 5), (GateKind::CZ, 1), (GateKind::Swap, 1)];
        for (kind, emitted) in flipped {
            let mut c = Circuit::with_clbits(2, 1);
            c.push(Gate::new(kind, vec![1, 0]).with_classical_condition(0, true)).unwrap();
            let mut dag = DagCircuit::from_circuit(&c);
            GateDirection::new(device.clone()).run(&mut dag, &mut PropertySet::new()).unwrap();
            let out = dag.to_circuit().unwrap();
            assert_eq!(out.size(), emitted, "{kind:?}");
            for gate in out.iter() {
                assert_eq!(gate.condition, Some(Condition::classical(0, true)), "{kind:?}: {gate}");
                if gate.num_qubits() == 2 {
                    assert_eq!(gate.qubits, vec![0, 1], "{kind:?}");
                }
            }
        }
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
        CheckGateDirection::new(coupling.clone()).run(&mut dag, &mut props).unwrap();
        assert_eq!(props.get_bool("is_direction_mapped"), Some(false));
        GateDirection::new(coupling.clone()).run(&mut dag, &mut props).unwrap();
        let flipped = dag.to_circuit().unwrap();
        assert!(circuits_equivalent(&c, &flipped).unwrap());
        CheckGateDirection::new(coupling).run(&mut dag, &mut props).unwrap();
        assert_eq!(props.get_bool("is_direction_mapped"), Some(true));
    }

    #[test]
    fn gate_direction_refuses_gates_it_cannot_flip() {
        // Only the edge (0, 1) is native, so every gate on (1, 0) needs a flip.
        let coupling = CouplingMap::from_edges(2, &[(0, 1)]).unwrap();
        for kind in [
            GateKind::CP(0.5),
            GateKind::CRZ(0.5),
            GateKind::CY,
            GateKind::CH,
            GateKind::RZZ(0.5),
            GateKind::Ecr,
        ] {
            let mut c = Circuit::new(2);
            c.push(Gate::new(kind, vec![1, 0])).unwrap();
            let name = c.gates()[0].name().to_string();
            let mut dag = DagCircuit::from_circuit(&c);
            let error = GateDirection::new(coupling.clone())
                .run(&mut dag, &mut PropertySet::new())
                .expect_err(&name);
            assert!(matches!(error, QcError::Unsupported(_)), "{name}: {error}");
            assert!(error.to_string().contains(&format!("`{name}`")), "{error}");
        }
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
    fn named_variants_report_their_own_names() {
        let coupling = CouplingMap::line(2);
        let passes: [Box<dyn TranspilerPass>; 3] = [
            Box::new(Unroller::named("BasisTranslator", &["cx"])),
            Box::new(GateDirection::named("CXDirection", coupling.clone())),
            Box::new(CheckGateDirection::named("CheckCXDirection", coupling)),
        ];
        let names: Vec<&str> = passes.iter().map(|p| p.name()).collect();
        assert_eq!(names, ["BasisTranslator", "CXDirection", "CheckCXDirection"]);
        assert!(passes[2].is_analysis() && !passes[1].is_analysis());
    }
}
