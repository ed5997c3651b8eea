//! Cross-crate integration tests: full transpilation pipelines on benchmark
//! circuits, checked against the matrix semantics where feasible.

use giallar::bench_circuits as qasmbench;
use giallar::core::wrapper::{baseline_transpile, giallar_transpile};
use giallar::ir::unitary::{circuit_unitary, equivalent_up_to_permutation};
use giallar::ir::{Circuit, CouplingMap, Matrix};

/// Compiles every benchmark that fits a 6-qubit grid and checks, for the
/// dense-semantics-sized ones, that the compiled circuit implements the same
/// unitary as the input up to the final layout permutation.
#[test]
fn baseline_pipeline_preserves_semantics_on_small_benchmarks() {
    let device = CouplingMap::grid(2, 3);
    let mut checked = 0usize;
    for bench in qasmbench::benchmark_suite() {
        if bench.circuit.num_qubits() > 5 || bench.circuit.has_nonunitary_ops() {
            continue;
        }
        let result = baseline_transpile(&bench.circuit, &device, 3).unwrap();
        assert_eq!(result.properties.get_bool("is_swap_mapped"), Some(true), "{}", bench.name);
        // Embed the original circuit into the device register for comparison.
        let mut original = bench.circuit.clone();
        original.enlarge_to(device.num_qubits());
        let final_layout =
            result.properties.final_layout.clone().expect("routing records the final layout");
        assert!(
            equivalent_up_to_permutation(
                &original,
                &result.circuit,
                final_layout.as_logical_to_physical()
            )
            .unwrap(),
            "{} was mis-compiled",
            bench.name
        );
        checked += 1;
    }
    assert!(checked >= 5, "expected to check at least 5 small benchmarks, got {checked}");
}

/// The verified (wrapped) pipeline must produce exactly the same circuits as
/// the unverified baseline — the wrapper only adds representation
/// conversions.
#[test]
fn verified_pipeline_matches_baseline_on_the_suite() {
    let device = CouplingMap::falcon27();
    let mut compared = 0usize;
    for bench in qasmbench::benchmark_suite() {
        if bench.circuit.num_qubits() > device.num_qubits() || bench.circuit.size() > 400 {
            continue;
        }
        let baseline = baseline_transpile(&bench.circuit, &device, 9).unwrap();
        let verified = giallar_transpile(&bench.circuit, &device, 9).unwrap();
        assert_eq!(baseline.circuit, verified.circuit, "{} differs", bench.name);
        compared += 1;
    }
    assert!(compared >= 10, "expected to compare at least 10 benchmarks, got {compared}");
}

/// GHZ on a line device: the compiled circuit still prepares a GHZ state.
#[test]
fn compiled_ghz_still_prepares_ghz() {
    let device = CouplingMap::line(4);
    let ghz = qasmbench::ghz(3);
    let result = baseline_transpile(&ghz, &device, 1).unwrap();
    let u = circuit_unitary(&result.circuit).unwrap();
    assert!(u.is_unitary(1e-9));
    // The state |000…0⟩ maps to an equal superposition of two basis states.
    let column: Vec<f64> = (0..u.rows()).map(|i| u[(i, 0)].abs()).collect();
    let nonzero: Vec<usize> = (0..column.len()).filter(|&i| column[i] > 1e-6).collect();
    assert_eq!(nonzero.len(), 2, "GHZ output must be a two-term superposition");
    for &i in &nonzero {
        assert!((column[i] - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-6);
    }
}

/// The OpenQASM printer/parser round-trips a full compiled circuit.
#[test]
fn compiled_circuits_roundtrip_through_qasm() {
    let device = CouplingMap::line(5);
    let mut circuit = Circuit::new(4);
    circuit.h(0).cx(0, 3).ccx(0, 1, 2).t(3).cx(1, 3);
    let compiled = baseline_transpile(&circuit, &device, 2).unwrap().circuit;
    let qasm = giallar::ir::qasm::to_qasm(&compiled).unwrap();
    let parsed = giallar::ir::qasm::from_qasm(&qasm).unwrap();
    assert_eq!(parsed, compiled);
}

/// Identity sanity check for the facade re-exports.
#[test]
fn facade_reexports_are_usable() {
    let identity = Matrix::identity(4);
    assert!(identity.is_unitary(1e-12));
    assert_eq!(giallar::smt::Context::new().num_rules(), 0);
}
