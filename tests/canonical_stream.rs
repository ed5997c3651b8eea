//! The canonical grammar is hashed as it is written: `circuit_fingerprint`
//! and `obligation_fingerprint` stream `write_canonical` into the
//! fingerprint builder instead of hashing a rendered `String`.  These
//! properties check, over random symbolic circuits and obligations, that the
//! streamed fingerprints equal `FingerprintBuilder::write_str` over the
//! `String` rendering kept below as the reference, so cache keys and
//! certificate fingerprints cannot drift.

use giallar::core::cache::obligation_fingerprint;
use giallar::core::certificate::circuit_fingerprint;
use giallar::core::obligation::{Goal, ProofObligation};
use giallar::ir::{Condition, ConditionKind, Gate, GateKind};
use giallar::smt::{Fingerprint, FingerprintBuilder};
use giallar::symbolic::{SymCircuit, SymElement};
use proptest::prelude::*;

/// The reference rendering: canonical forms built as `String`s, exactly as
/// they were before they were streamed.
mod reference {
    use super::*;

    fn join(values: &[usize]) -> String {
        values.iter().map(usize::to_string).collect::<Vec<_>>().join(",")
    }

    fn kind(kind: &GateKind) -> String {
        let params = kind.params();
        if params.is_empty() {
            kind.name().to_string()
        } else {
            let bits: Vec<String> =
                params.iter().map(|p| format!("{:016x}", p.to_bits())).collect();
            format!("{}[{}]", kind.name(), bits.join(","))
        }
    }

    fn gate(gate: &Gate) -> String {
        let cond = match gate.condition.map(|c| c.kind) {
            None => "-".to_string(),
            Some(ConditionKind::Classical { bit, value }) => format!("c{bit}={}", value as u8),
            Some(ConditionKind::Quantum { qubit }) => format!("q{qubit}"),
        };
        format!(
            "{} q:{} c:{} if:{}",
            kind(&gate.kind),
            join(&gate.qubits),
            join(&gate.clbits),
            cond
        )
    }

    fn element(element: &SymElement) -> String {
        match element {
            SymElement::Gate(g) => format!("g({})", gate(g)),
            SymElement::Segment { name, excluded_qubits } => {
                format!("seg({name};excl:{})", join(excluded_qubits))
            }
        }
    }

    pub fn circuit(circuit: &SymCircuit) -> String {
        let elements: Vec<String> = circuit.elements().iter().map(element).collect();
        format!("circ(n={};[{}])", circuit.num_qubits(), elements.join(";"))
    }

    fn goal(goal: &Goal) -> String {
        match goal {
            Goal::Equivalence { lhs, rhs } => {
                format!("equivalence(lhs={};rhs={})", circuit(lhs), circuit(rhs))
            }
            Goal::EquivalenceUpToPermutation { lhs, rhs, perm } => format!(
                "equivalence_up_to_permutation(lhs={};rhs={};perm={})",
                circuit(lhs),
                circuit(rhs),
                join(perm)
            ),
            Goal::TerminationDecrease { consumed, kept } => {
                format!("termination_decrease(consumed={consumed};kept={kept})")
            }
            Goal::AlwaysTerminates => "always_terminates".to_string(),
            Goal::CircuitUnchanged => "circuit_unchanged".to_string(),
        }
    }

    pub fn obligation(obligation: &ProofObligation) -> String {
        format!("{} :: {}", obligation.description, goal(&obligation.goal))
    }
}

/// Strategy: an angle, including signed zeros, subnormals and large values.
fn param() -> impl Strategy<Value = f64> {
    prop_oneof![
        -7.0..7.0f64,
        Just(0.0),
        Just(-0.0),
        (1..0x000f_ffff_ffff_ffffu64).prop_map(f64::from_bits),
        (1..0x000f_ffff_ffff_ffffu64).prop_map(|bits| -f64::from_bits(bits)),
        Just(f64::MAX),
    ]
}

/// Strategy: a gate kind with 0–3 parameters.
fn kind() -> impl Strategy<Value = GateKind> {
    (0..10usize, param(), param(), param()).prop_map(|(which, a, b, c)| match which {
        0 => GateKind::H,
        1 => GateKind::RZ(a),
        2 => GateKind::U2(a, b),
        3 => GateKind::U3(a, b, c),
        4 => GateKind::CX,
        5 => GateKind::CP(a),
        6 => GateKind::CCX,
        7 => GateKind::Measure,
        8 => GateKind::Barrier,
        _ => GateKind::RZZ(b),
    })
}

/// Strategy: no condition, a classical one, or a quantum one.
fn condition() -> impl Strategy<Value = Option<Condition>> {
    prop_oneof![
        Just(None),
        (0..40usize, 0..2usize)
            .prop_map(|(bit, value)| Some(Condition::classical(bit, value == 1))),
        (0..40usize).prop_map(|qubit| Some(Condition::quantum(qubit))),
    ]
}

/// Strategy: a gate or an opaque segment.
fn element() -> impl Strategy<Value = SymElement> {
    let gate = (
        kind(),
        prop::collection::vec(0..30usize, 1..4),
        prop::collection::vec(0..12usize, 0..3),
        condition(),
    )
        .prop_map(|(kind, qubits, clbits, condition)| {
            let mut gate = Gate::new(kind, qubits);
            gate.clbits = clbits;
            gate.condition = condition;
            SymElement::Gate(gate)
        });
    let names = ["C", "C1", "rest", "R_2"];
    let segment = (0..names.len(), prop::collection::vec(0..30usize, 0..5))
        .prop_map(move |(name, excluded)| SymElement::segment(names[name], excluded));
    // Two gates to every segment.
    (0..3usize, gate, segment)
        .prop_map(|(which, gate, segment)| if which < 2 { gate } else { segment })
}

/// Strategy: a symbolic circuit of 0–11 elements.
fn circuit() -> impl Strategy<Value = SymCircuit> {
    (0..30usize, prop::collection::vec(element(), 0..12)).prop_map(|(num_qubits, elements)| {
        let mut circuit = SymCircuit::new(num_qubits);
        for element in elements {
            match element {
                SymElement::Gate(gate) => circuit.push_gate(gate),
                SymElement::Segment { name, excluded_qubits } => {
                    circuit.push_segment(&name, excluded_qubits)
                }
            };
        }
        circuit
    })
}

/// Strategy: an obligation over any goal kind, with random permutation maps.
fn obligation() -> impl Strategy<Value = ProofObligation> {
    let descriptions = ["", "branch: adjacent CX pair cancelled", "loop :: exit"];
    let goal = prop_oneof![
        (circuit(), circuit()).prop_map(|(lhs, rhs)| Goal::Equivalence { lhs, rhs }),
        (circuit(), circuit(), prop::collection::vec(0..30usize, 0..12))
            .prop_map(|(lhs, rhs, perm)| Goal::EquivalenceUpToPermutation { lhs, rhs, perm }),
        (0..1000usize, 0..1000usize)
            .prop_map(|(consumed, kept)| Goal::TerminationDecrease { consumed, kept }),
        Just(Goal::AlwaysTerminates),
        Just(Goal::CircuitUnchanged),
    ];
    (0..descriptions.len(), goal)
        .prop_map(move |(d, goal)| ProofObligation::new(descriptions[d], goal))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn streamed_circuit_fingerprint_equals_the_string_rendering(circuit in circuit()) {
        let mut expected = FingerprintBuilder::new();
        expected.write_str("giallar-circuit").write_str(&reference::circuit(&circuit));
        prop_assert_eq!(circuit_fingerprint(&circuit), expected.finish());
    }

    #[test]
    fn streamed_obligation_fingerprint_equals_the_string_rendering(
        obligation in obligation(),
        library in 0..u64::MAX,
        width in 0..30usize,
    ) {
        let rendered = reference::obligation(&obligation);
        prop_assert_eq!(&obligation.canonical_form(), &rendered);
        let mut expected = FingerprintBuilder::new();
        expected
            .write_str("giallar-obligation")
            .write_u64(u64::from(giallar::core::cache::CACHE_FORMAT_VERSION))
            .write_u64(library)
            .write_str("smtlite-rewrite")
            .write_u64(width as u64)
            .write_str(&rendered);
        prop_assert_eq!(
            obligation_fingerprint(&obligation, Fingerprint(library), "smtlite-rewrite", width),
            expected.finish()
        );
    }
}
