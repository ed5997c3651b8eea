//! `giallar verify --pass` is repeatable, like `giallar client verify
//! --pass`: every named pass is verified, in registry order, and a name
//! that matches no pass is a usage error even next to valid ones.

use std::process::{Command, Output};

fn verify(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_giallar"))
        .args(["verify", "--deterministic"])
        .args(args)
        .output()
        .expect("run giallar verify")
}

#[test]
fn repeated_pass_flags_verify_every_named_pass() {
    let output = verify(&["--pass", "CXCancellation", "--pass", "GateDirection"]);
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert_eq!(output.status.code(), Some(0), "stdout: {stdout}");
    let rows: Vec<&str> = stdout
        .lines()
        .filter(|line| line.starts_with("CXCancellation") || line.starts_with("GateDirection"))
        .collect();
    assert_eq!(rows.len(), 2, "expected one row per named pass:\n{stdout}");
    assert!(stdout.contains("verified 2 / 2 passes"), "summary:\n{stdout}");
}

#[test]
fn an_unknown_name_among_known_ones_is_a_usage_error() {
    let output = verify(&["--pass", "CXCancellation", "--pass", "GateDirecton"]);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("unknown pass `GateDirecton`"), "stderr: {stderr}");
    assert!(stderr.contains("did you mean `GateDirection`"), "stderr: {stderr}");
    assert!(output.stdout.is_empty(), "a refused run must not print a report");
}
