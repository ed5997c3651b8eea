//! Property-based tests over the core data structures and invariants.

use giallar::core::{BackendRegistry, Discharger, Goal};
use giallar::ir::qasm::{from_qasm, to_qasm};
use giallar::ir::unitary::{circuit_unitary, circuits_equivalent, equivalent_up_to_permutation};
use giallar::ir::{Circuit, CouplingMap, DagCircuit, Gate, GateKind, Layout};
use giallar::passes::optimization::{CxCancellation, Optimize1qGates};
use giallar::passes::pass::{PassManager, PropertySet, TranspilerPass};
use giallar::passes::routing::BasicSwap;
use giallar::symbolic::{EquivalenceChecker, SymCircuit};
use proptest::prelude::*;

/// Strategy: a random unconditioned gate over `n` qubits.
fn gate_strategy(n: usize) -> impl Strategy<Value = Gate> {
    let q = 0..n;
    let q2 = (0..n, 0..n).prop_filter("distinct qubits", |(a, b)| a != b);
    prop_oneof![
        q.clone().prop_map(|q| Gate::new(GateKind::H, vec![q])),
        q.clone().prop_map(|q| Gate::new(GateKind::X, vec![q])),
        q.clone().prop_map(|q| Gate::new(GateKind::T, vec![q])),
        (q.clone(), -3.0..3.0f64).prop_map(|(q, a)| Gate::new(GateKind::U1(a), vec![q])),
        (q.clone(), -3.0..3.0f64, -3.0..3.0f64, -3.0..3.0f64)
            .prop_map(|(q, a, b, c)| Gate::new(GateKind::U3(a, b, c), vec![q])),
        q2.clone().prop_map(|(a, b)| Gate::new(GateKind::CX, vec![a, b])),
        q2.prop_map(|(a, b)| Gate::new(GateKind::CZ, vec![a, b])),
    ]
}

fn circuit_strategy(n: usize, max_gates: usize) -> impl Strategy<Value = Circuit> {
    prop::collection::vec(gate_strategy(n), 0..max_gates).prop_map(move |gates| {
        let mut circuit = Circuit::new(n);
        for gate in gates {
            circuit.push(gate).expect("generated gates are valid");
        }
        circuit
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// DAG conversion is lossless.
    #[test]
    fn dag_roundtrip(circuit in circuit_strategy(4, 24)) {
        let dag = DagCircuit::from_circuit(&circuit);
        prop_assert_eq!(dag.to_circuit().unwrap(), circuit);
    }

    /// OpenQASM printing/parsing is lossless for the supported subset.
    #[test]
    fn qasm_roundtrip(circuit in circuit_strategy(4, 20)) {
        let qasm = to_qasm(&circuit).unwrap();
        let parsed = from_qasm(&qasm).unwrap();
        prop_assert_eq!(parsed.num_qubits(), circuit.num_qubits());
        prop_assert_eq!(parsed.size(), circuit.size());
        // Parameterised gates survive with full precision at 1e-9.
        prop_assert!(circuits_equivalent(&parsed, &circuit).unwrap());
    }

    /// Every generated circuit has a unitary dense semantics.
    #[test]
    fn circuit_unitaries_are_unitary(circuit in circuit_strategy(3, 16)) {
        let u = circuit_unitary(&circuit).unwrap();
        prop_assert!(u.is_unitary(1e-8));
    }

    /// The inverse circuit composes with the original to the identity.
    #[test]
    fn inverse_composes_to_identity(circuit in circuit_strategy(3, 12)) {
        let inverse = circuit.inverse().unwrap();
        let composed = circuit.concatenated(&inverse).unwrap();
        prop_assert!(circuits_equivalent(&composed, &Circuit::new(3)).unwrap());
    }

    /// CXCancellation preserves semantics on arbitrary circuits.
    #[test]
    fn cx_cancellation_preserves_semantics(circuit in circuit_strategy(4, 20)) {
        let mut pm = PassManager::new();
        pm.append(Box::new(CxCancellation));
        let out = pm.run(&circuit).unwrap().circuit;
        prop_assert!(out.size() <= circuit.size());
        prop_assert!(circuits_equivalent(&circuit, &out).unwrap());
    }

    /// Optimize1qGates preserves semantics on arbitrary circuits.
    #[test]
    fn optimize_1q_preserves_semantics(circuit in circuit_strategy(3, 16)) {
        let mut pm = PassManager::new();
        pm.append(Box::new(Optimize1qGates::new()));
        let out = pm.run(&circuit).unwrap().circuit;
        prop_assert!(circuits_equivalent(&circuit, &out).unwrap());
    }

    /// BasicSwap routes every circuit onto a line device, respects the
    /// coupling map, and is correct up to the tracked permutation.
    #[test]
    fn basic_swap_routes_correctly(circuit in circuit_strategy(4, 14)) {
        let coupling = CouplingMap::line(4);
        let mut dag = DagCircuit::from_circuit(&circuit);
        let mut props = PropertySet::new();
        BasicSwap::new(coupling.clone()).run(&mut dag, &mut props).unwrap();
        let routed = dag.to_circuit().unwrap();
        for gate in routed.iter() {
            if gate.num_qubits() == 2 && !gate.is_directive() {
                prop_assert!(coupling.connected(gate.qubits[0], gate.qubits[1]));
            }
        }
        let layout = props.final_layout.unwrap();
        prop_assert!(equivalent_up_to_permutation(
            &circuit,
            &routed,
            layout.as_logical_to_physical()
        )
        .unwrap());
    }

    /// Snapshots of a prewarmed solver template decide equivalence goals
    /// exactly like freshly built checkers, evidence fingerprints included,
    /// also after earlier goals warmed the snapshot: solver contexts share
    /// the compiled rule library, never each other's state.
    #[test]
    fn prewarmed_snapshots_match_fresh_checkers(
        pairs in prop::collection::vec((circuit_strategy(4, 16), circuit_strategy(4, 16)), 1..4)
    ) {
        let mut template = Discharger::new();
        template.prewarm(4);
        let mut discharger = template.clone();
        let mut registry = BackendRegistry::default();
        registry.prewarm(4);
        let mut registry = registry.clone();
        let identity: Vec<usize> = (0..4).collect();
        for (circuit, other) in pairs {
            let mut pm = PassManager::new();
            pm.append(Box::new(CxCancellation));
            let cancelled = pm.run(&circuit).unwrap().circuit;
            // One goal that holds, and one that almost always does not.
            for rhs in [&cancelled, &other] {
                let lhs = SymCircuit::from_circuit(&circuit);
                let rhs = SymCircuit::from_circuit(rhs);
                let verdict = EquivalenceChecker::new(4).check(&lhs, &rhs);
                let evidence =
                    EquivalenceChecker::new(4).check_with_evidence(&lhs, &rhs, &identity);
                let goal = Goal::Equivalence { lhs, rhs };
                prop_assert_eq!(discharger.discharge(&goal), verdict);
                prop_assert_eq!(registry.discharge_with_evidence(&goal), evidence);
            }
        }
    }

    /// `next_gate` always satisfies its verified-library specification.
    #[test]
    fn next_gate_spec(circuit in circuit_strategy(4, 20), index in 0usize..20) {
        prop_assert!(giallar::core::library::next_gate_spec_holds(&circuit, index));
    }

    /// Layout swaps keep the layout a bijection.
    #[test]
    fn layout_swaps_stay_bijective(swaps in prop::collection::vec((0usize..6, 0usize..6), 0..20)) {
        let mut layout = Layout::trivial(6);
        for (a, b) in swaps {
            if a != b {
                layout.swap_physical(a, b);
            }
            prop_assert!(layout.is_valid());
        }
    }

    /// `merge_1q_gate` satisfies its specification on random u-gate runs.
    #[test]
    fn merge_1q_spec(angles in prop::collection::vec((-3.0..3.0f64, -3.0..3.0f64, -3.0..3.0f64), 1..6)) {
        let run: Vec<Gate> = angles
            .into_iter()
            .map(|(a, b, c)| Gate::new(GateKind::U3(a, b, c), vec![0]))
            .collect();
        prop_assert!(giallar::core::library::merge_1q_spec_holds(&run));
    }

    /// The shortest-path utility satisfies its specification on grids.
    #[test]
    fn shortest_path_spec(a in 0usize..9, b in 0usize..9) {
        let coupling = CouplingMap::grid(3, 3);
        prop_assert!(giallar::core::library::shortest_path_spec_holds(&coupling, a, b));
    }
}
