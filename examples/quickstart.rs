//! Quickstart: build a circuit, run a verified pass through the Qiskit
//! wrapper, and verify the pass push-button style.
//!
//! Run with `cargo run --example quickstart`.

use giallar::core::backend::BackendSelection;
use giallar::core::cache::VerdictCache;
use giallar::core::registry::verified_passes;
use giallar::core::verifier::verify_passes_cached_with;
use giallar::core::wrapper::QiskitWrapper;
use giallar::ir::{Circuit, DagCircuit};
use giallar::passes::optimization::CxCancellation;
use giallar::passes::pass::{PropertySet, TranspilerPass};
use giallar::symbolic::{check_equivalence, SymCircuit};

fn main() {
    // 1. Build the GHZ circuit from Figure 2 of the paper, with a redundant
    //    CNOT pair that the CXCancellation pass should remove.
    let mut circuit = Circuit::new(3);
    circuit.h(0).cx(0, 1).cx(1, 2).cx(1, 2).cx(1, 2);
    println!("input circuit ({} gates):\n{circuit}", circuit.size());

    // 2. Run the verified CXCancellation pass through the Qiskit wrapper
    //    (DAG -> gate list -> DAG conversions around the verified library).
    let mut dag = DagCircuit::from_circuit(&circuit);
    let mut props = PropertySet::new();
    QiskitWrapper::new(CxCancellation).run(&mut dag, &mut props).expect("pass execution succeeds");
    let optimized = dag.to_circuit().expect("DAG converts back to a circuit");
    println!("after CXCancellation ({} gates):\n{optimized}", optimized.size());

    // 3. Check the concrete input/output pair with the symbolic equivalence
    //    checker (the same engine the verifier uses).
    let verdict = check_equivalence(
        &SymCircuit::from_circuit(&circuit),
        &SymCircuit::from_circuit(&optimized),
    );
    println!("translation validation of this run: {verdict:?}");

    // 4. Verify the pass itself, push-button, for all inputs.
    let passes: Vec<_> =
        verified_passes().into_iter().filter(|p| p.name == "CXCancellation").collect();
    let mut cache = VerdictCache::new();
    let reports = verify_passes_cached_with(&passes, &mut cache, BackendSelection::Default);
    let report = &reports[0];
    println!(
        "push-button verification of CXCancellation: verified={} ({} subgoals, {:.1} µs)",
        report.verified,
        report.subgoals,
        report.time_seconds * 1e6
    );
}
