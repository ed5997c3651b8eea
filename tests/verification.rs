//! Integration tests for the verification pipeline itself: Table 2, the
//! case studies, and agreement between the symbolic checker and the matrix
//! semantics on randomly generated circuit pairs.

mod support;

use giallar::core::backend::BackendSelection;
use giallar::core::case_studies::all_case_studies;
use giallar::ir::unitary::circuits_equivalent;
use giallar::ir::{Circuit, GateKind};
use giallar::symbolic::{check_equivalence, SymCircuit, Verdict};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

#[test]
fn all_44_registered_passes_verify() {
    let reports = support::verify_registry(BackendSelection::Default);
    assert_eq!(reports.len(), 44);
    for report in &reports {
        assert!(report.verified, "{} failed: {:?}", report.name, report.failure);
        assert!(report.subgoals >= 1 && report.subgoals <= 8);
        assert!(report.time_seconds < 30.0, "{} took too long", report.name);
    }
}

#[test]
fn the_three_paper_bugs_are_found() {
    let studies = all_case_studies();
    assert_eq!(studies.len(), 3);
    for study in studies {
        assert!(study.bug_detected, "{}", study.name);
        assert!(study.fixed_version_verified, "{}", study.name);
    }
}

fn random_circuit(rng: &mut StdRng, num_qubits: usize, gates: usize) -> Circuit {
    let mut circuit = Circuit::new(num_qubits);
    for _ in 0..gates {
        match rng.random_range(0..6) {
            0 => {
                circuit.h(rng.random_range(0..num_qubits));
            }
            1 => {
                circuit.x(rng.random_range(0..num_qubits));
            }
            2 => {
                circuit.z(rng.random_range(0..num_qubits));
            }
            3 => {
                circuit.t(rng.random_range(0..num_qubits));
            }
            _ => {
                let a = rng.random_range(0..num_qubits);
                let mut b = rng.random_range(0..num_qubits);
                while b == a {
                    b = rng.random_range(0..num_qubits);
                }
                circuit.cx(a, b);
            }
        }
    }
    circuit
}

/// Whenever the symbolic checker proves two random circuits equivalent, the
/// matrix semantics must agree (soundness of the whole chain); and when the
/// matrix semantics says "different", the symbolic checker must never claim
/// "equivalent".
#[test]
fn symbolic_equivalence_is_sound_on_random_circuits() {
    let mut rng = StdRng::seed_from_u64(2022);
    let mut proved = 0usize;
    for round in 0..60 {
        let n = 2 + (round % 3);
        let base = random_circuit(&mut rng, n, 6);
        // Build a provably equivalent variant: append a cancelling pair.
        let mut padded = base.clone();
        let q = rng.random_range(0..n);
        padded.h(q).h(q);
        let verdict =
            check_equivalence(&SymCircuit::from_circuit(&base), &SymCircuit::from_circuit(&padded));
        if verdict.is_proved() {
            proved += 1;
            assert!(circuits_equivalent(&base, &padded).unwrap());
        }
        // A mutated circuit (extra X) must never be "proved" equivalent.
        let mut mutated = base.clone();
        mutated.x(rng.random_range(0..n));
        let verdict = check_equivalence(
            &SymCircuit::from_circuit(&base),
            &SymCircuit::from_circuit(&mutated),
        );
        if matches!(verdict, Verdict::Proved) {
            assert!(
                circuits_equivalent(&base, &mutated).unwrap(),
                "symbolic checker unsoundly proved a non-equivalence"
            );
        }
    }
    assert!(proved >= 50, "the cancelling-pair variants should almost always be proved");
}

/// The symbolic checker is conservative: it never proves circuits that the
/// matrix semantics distinguishes, across a sweep of hand-picked tricky
/// pairs.
#[test]
fn symbolic_checker_rejects_known_inequivalences() {
    let cases: Vec<(Circuit, Circuit)> = vec![
        {
            let mut a = Circuit::new(1);
            a.h(0);
            (a, Circuit::new(1))
        },
        {
            let mut a = Circuit::new(2);
            a.cx(0, 1);
            let mut b = Circuit::new(2);
            b.cx(1, 0);
            (a, b)
        },
        {
            let mut a = Circuit::new(1);
            a.s(0);
            let mut b = Circuit::new(1);
            b.add(GateKind::Sdg, &[0]);
            (a, b)
        },
    ];
    for (a, b) in cases {
        assert!(!circuits_equivalent(&a, &b).unwrap());
        assert!(!check_equivalence(&SymCircuit::from_circuit(&a), &SymCircuit::from_circuit(&b))
            .is_proved());
    }
}
