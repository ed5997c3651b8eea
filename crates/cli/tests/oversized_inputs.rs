//! Device specs and OpenQASM registers wider than the qubit ceiling
//! (`qc_ir::MAX_QUBITS`) are refused before anything is allocated for them:
//! each gets a one-line error and exit code 1 well inside a second, instead
//! of the cubic-time device build or the 20-million-gate broadcast they
//! used to start.

use std::process::Command;
use std::time::{Duration, Instant};

fn assert_refused_quickly(args: &[&str]) {
    let start = Instant::now();
    let output = Command::new(env!("CARGO_BIN_EXE_giallar")).args(args).output().unwrap();
    let elapsed = start.elapsed();
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "{args:?}: {stderr}");
    assert_eq!(stderr.trim_end().lines().count(), 1, "{args:?}: multi-line error: {stderr}");
    assert!(stderr.contains("ceiling"), "{args:?}: {stderr}");
    assert!(output.stdout.is_empty(), "{args:?} printed to stdout");
    assert!(elapsed < Duration::from_secs(1), "{args:?} took {elapsed:?}");
}

#[test]
fn oversized_device_specs_are_one_line_errors() {
    assert_refused_quickly(&["compile", "ghz_8", "--device", "line:4000"]);
    assert_refused_quickly(&["compile", "ghz_8", "--device", "grid:3000x3000"]);
}

#[test]
fn an_oversized_qasm_register_is_a_one_line_error() {
    let path = std::env::temp_dir().join(format!("giallar-oversized-{}.qasm", std::process::id()));
    std::fs::write(&path, "OPENQASM 2.0;\nqreg q[20000000];\nh q;\n").unwrap();
    assert_refused_quickly(&["compile", path.to_str().unwrap()]);
    std::fs::remove_file(&path).ok();
}
