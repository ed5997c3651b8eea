//! Device specs and OpenQASM registers wider than the qubit ceiling
//! (`qc_ir::MAX_QUBITS`) are refused before anything is allocated for them:
//! each gets a one-line error and exit code 1 well inside a second, instead
//! of the cubic-time device build or the 20-million-gate broadcast they
//! used to start.  Gate parameters nested deeper than the parser's cap (64
//! parentheses or unary signs) are refused the same way, instead of
//! overflowing its stack.

use std::process::Command;
use std::time::{Duration, Instant};

fn assert_refused_quickly(args: &[&str], reason: &str) {
    let start = Instant::now();
    let output = Command::new(env!("CARGO_BIN_EXE_giallar")).args(args).output().unwrap();
    let elapsed = start.elapsed();
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "{args:?}: {stderr}");
    assert_eq!(stderr.trim_end().lines().count(), 1, "{args:?}: multi-line error: {stderr}");
    assert!(stderr.contains(reason), "{args:?}: {stderr}");
    assert!(output.stdout.is_empty(), "{args:?} printed to stdout");
    assert!(elapsed < Duration::from_secs(1), "{args:?} took {elapsed:?}");
}

#[test]
fn oversized_device_specs_are_one_line_errors() {
    assert_refused_quickly(&["compile", "ghz_8", "--device", "line:4000"], "ceiling");
    assert_refused_quickly(&["compile", "ghz_8", "--device", "grid:3000x3000"], "ceiling");
}

#[test]
fn an_oversized_qasm_register_is_a_one_line_error() {
    assert_qasm_refused_quickly("register", "qreg q[20000000];\nh q;", "ceiling");
}

#[test]
fn deeply_nested_gate_parameters_are_one_line_errors() {
    let depth = 100_000;
    let parens = format!("qreg q[1];\nrz({}pi{}) q[0];", "(".repeat(depth), ")".repeat(depth));
    let signs = format!("qreg q[1];\nrz({}pi) q[0];", "-".repeat(depth));
    assert_qasm_refused_quickly("parens", &parens, "nested deeper");
    assert_qasm_refused_quickly("signs", &signs, "nested deeper");
}

fn assert_qasm_refused_quickly(tag: &str, body: &str, reason: &str) {
    let path =
        std::env::temp_dir().join(format!("giallar-oversized-{tag}-{}.qasm", std::process::id()));
    std::fs::write(&path, format!("OPENQASM 2.0;\n{body}\n")).unwrap();
    assert_refused_quickly(&["compile", path.to_str().unwrap()], reason);
    std::fs::remove_file(&path).ok();
}
