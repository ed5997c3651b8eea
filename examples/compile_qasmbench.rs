//! Reproduces the circuits of Figure 11 of the paper: the unverified
//! Qiskit-style baseline and the verified Giallar pipeline (the same passes
//! run through the gate-list wrapper) compile the QASMBench suite to the
//! same output, using the lookahead swap pass on a 27-qubit device.
//!
//! Run with `cargo run --release --example compile_qasmbench`.  Sampled
//! compile times of both pipelines come from `giallar bench --timings`
//! (`BENCH_figure11_compilation.json`).

use giallar::bench_circuits::benchmark_suite;
use giallar::core::wrapper::{baseline_transpile, giallar_transpile};
use giallar::ir::CouplingMap;

fn main() {
    let device = CouplingMap::falcon27();
    println!(
        "{:<16} {:>7} {:>7} {:>12} {:>12}",
        "circuit", "qubits", "gates", "output gates", "output 2q"
    );
    let mut compiled = 0usize;
    for bench in benchmark_suite() {
        if bench.circuit.num_qubits() > device.num_qubits() {
            continue;
        }
        let baseline = baseline_transpile(&bench.circuit, &device, 7);
        let verified = giallar_transpile(&bench.circuit, &device, 7);
        let (Ok(baseline), Ok(verified)) = (baseline, verified) else {
            println!("{:<16} skipped (baseline failed to compile)", bench.name);
            continue;
        };
        assert_eq!(baseline.circuit, verified.circuit, "pipelines must agree on the output");
        compiled += 1;
        println!(
            "{:<16} {:>7} {:>7} {:>12} {:>12}",
            bench.name,
            bench.circuit.num_qubits(),
            bench.circuit.size(),
            verified.circuit.size(),
            verified.circuit.two_qubit_gate_count()
        );
    }
    println!("\ncompiled {compiled} circuits; both pipelines agree on every output");
}
