//! Compile outputs pinned across versions.
//!
//! `tests/data/compile_outputs.txt` holds one line per (device, circuit,
//! seed): the fingerprint of the baseline pipeline's output circuit, its
//! final layout and the number of SWAPs `LookaheadSwap` inserted.  Every
//! suite circuit that fits the device is covered, on `falcon27` and
//! `grid:5x6`, with seeds 1, 2, 3 and 7.  A change that speeds up the
//! compile path must leave every line as it is; the verified (wrapped)
//! pipeline must produce the same outputs as the baseline.
//!
//! After an intended output change, edit the data file by hand: a mismatch
//! prints the full actual line next to the pinned one.

use giallar::bench_circuits::benchmark_suite;
use giallar::core::wrapper::{baseline_transpile, giallar_transpile};
use giallar::ir::CouplingMap;
use giallar::passes::pass::TranspileResult;
use giallar::smt::fingerprint::fingerprint_str;

const DEVICES: [&str; 2] = ["falcon27", "grid:5x6"];
const SEEDS: [u64; 4] = [1, 2, 3, 7];

fn data_path() -> String {
    format!("{}/tests/data/compile_outputs.txt", env!("CARGO_MANIFEST_DIR"))
}

/// One data line.  The circuit fingerprint hashes the `Debug` rendering,
/// which prints every angle as its shortest round-tripping decimal, so two
/// outputs share a fingerprint only if they agree bit for bit.
fn output_line(device: &str, circuit: &str, seed: u64, result: &TranspileResult) -> String {
    let layout = result
        .properties
        .final_layout
        .as_ref()
        .map(|layout| format!("{:?}", layout.as_logical_to_physical()))
        .unwrap_or_else(|| "none".to_string());
    let swaps = result.properties.get_int("lookahead_swaps_inserted");
    format!(
        "{device} {circuit} {seed} {} {} {}",
        fingerprint_str(&format!("{:?}", result.circuit)),
        layout.replace(' ', ""),
        swaps.map_or_else(|| "none".to_string(), |n| n.to_string()),
    )
}

#[test]
fn baseline_outputs_match_the_pinned_data_and_the_wrapped_pipeline() {
    let suite = benchmark_suite();
    let mut lines = Vec::new();
    for spec in DEVICES {
        let device = CouplingMap::from_spec(spec).unwrap();
        for bench in suite.iter().filter(|b| b.circuit.num_qubits() <= device.num_qubits()) {
            for seed in SEEDS {
                let baseline = baseline_transpile(&bench.circuit, &device, seed)
                    .unwrap_or_else(|error| panic!("{spec} {} {seed}: {error}", bench.name));
                let wrapped = giallar_transpile(&bench.circuit, &device, seed).unwrap();
                assert_eq!(baseline.circuit, wrapped.circuit, "{spec} {} {seed}", bench.name);
                assert_eq!(
                    baseline.properties.final_layout, wrapped.properties.final_layout,
                    "{spec} {} {seed}",
                    bench.name
                );
                lines.push(output_line(spec, &bench.name, seed, &baseline));
            }
        }
    }
    let expected = std::fs::read_to_string(data_path()).unwrap();
    for (got, want) in lines.iter().zip(expected.lines()) {
        assert_eq!(got, want, "compile output drifted");
    }
    assert_eq!(lines.len(), expected.lines().count(), "line count drifted");
}
