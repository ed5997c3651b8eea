//! `giallar compile` at the edges of its input: an `ecr` program unrolls
//! into the `u1/u2/u3/cx` basis and certifies, a long program routes within
//! the swap budget, and bad gates and gate parameters are refused while
//! parsing, naming the line they were written on.

use std::path::PathBuf;
use std::process::{Command, Output};

fn giallar(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_giallar")).args(args).output().unwrap()
}

fn write_qasm(tag: &str, body: &str) -> PathBuf {
    let path =
        std::env::temp_dir().join(format!("giallar-compile-{tag}-{}.qasm", std::process::id()));
    std::fs::write(&path, format!("OPENQASM 2.0;\ninclude \"qelib1.inc\";\n{body}")).unwrap();
    path
}

#[test]
fn ecr_compiles_certifies_and_checks() {
    let qasm = write_qasm("ecr", "qreg q[2];\necr q[0],q[1];\necr q[1],q[0];\n");
    let cert = qasm.with_extension("cert.json");
    let (qasm_arg, cert_arg) = (qasm.to_str().unwrap(), cert.to_str().unwrap());
    let compiled = giallar(&["compile", qasm_arg, "--device", "line:2", "--certify", cert_arg]);
    assert!(compiled.status.success(), "{}", String::from_utf8_lossy(&compiled.stderr));
    let checked = giallar(&["check-cert", cert_arg]);
    assert!(checked.status.success(), "{}", String::from_utf8_lossy(&checked.stderr));
    std::fs::remove_file(&qasm).ok();
    std::fs::remove_file(&cert).ok();
}

#[test]
fn a_long_circuit_routes_within_the_per_gate_swap_budget() {
    // 4,000 random CNOTs over falcon27 insert more than the 10,000 swaps
    // the standard pipeline's `LookaheadSwap` allows in a row; the budget
    // bounds one stall, not the whole circuit, so the program compiles.
    let mut state = 0x9e37_79b9_7f4a_7c15_u64;
    let mut next = |bound: u64| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state % bound
    };
    let mut body = String::from("qreg q[27];\n");
    for _ in 0..4000 {
        let a = next(27);
        let b = (a + 1 + next(26)) % 27;
        body.push_str(&format!("cx q[{a}],q[{b}];\n"));
    }
    let qasm = write_qasm("swap-budget", &body);
    let output = giallar(&["compile", qasm.to_str().unwrap(), "--device", "falcon27"]);
    std::fs::remove_file(&qasm).ok();
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(output.status.success(), "{}", String::from_utf8_lossy(&output.stderr));
    assert!(stdout.contains("swap mapped:    true"), "{stdout}");
}

/// Runs `giallar compile` on a one-statement program over `qreg q[1]` and
/// returns its exit code and stderr.
fn compile_one(tag: &str, statement: &str) -> (Option<i32>, String) {
    compile_program(tag, &format!("qreg q[1];\n{statement}\n"))
}

/// Runs `giallar compile` on a program body (its statements start at line
/// 3) and returns its exit code and stderr.
fn compile_program(tag: &str, body: &str) -> (Option<i32>, String) {
    let qasm = write_qasm(tag, body);
    let output = giallar(&["compile", qasm.to_str().unwrap(), "--device", "line:2"]);
    std::fs::remove_file(&qasm).ok();
    (output.status.code(), String::from_utf8_lossy(&output.stderr).trim_end().to_string())
}

#[test]
fn non_finite_parameters_are_refused_at_parse_time() {
    for (tag, param) in [("inf", "1e999"), ("div", "pi/0"), ("nan", "0/0")] {
        let (code, stderr) = compile_one(tag, &format!("rz({param}) q[0];"));
        assert_eq!(code, Some(1), "{stderr}");
        assert_eq!(
            stderr,
            format!(
                "error: parsing {}: parse error at line 4: parameter expression is not a \
                 finite number",
                std::env::temp_dir()
                    .join(format!("giallar-compile-{tag}-{}.qasm", std::process::id()))
                    .display()
            )
        );
    }
}

#[test]
fn a_wrong_parameter_count_names_parameters() {
    let (code, stderr) = compile_one("u3", "u3(1,2) q[0];");
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.ends_with(": gate u3 expects 3 parameters, got 2"), "{stderr}");
}

#[test]
fn unparameterised_gates_refuse_parameters() {
    for (tag, statement, expected) in [
        ("h-param", "h(1.5) q[0];", "line 4: gate h expects 0 parameters, got 1"),
        ("cx-param", "cx(3) q[0],q[1];", "line 4: gate cx expects 0 parameters, got 1"),
    ] {
        let (code, stderr) = compile_program(tag, &format!("qreg q[2];\n{statement}\n"));
        assert_eq!(code, Some(1), "{stderr}");
        assert!(stderr.ends_with(&format!("parse error at {expected}")), "{stderr}");
    }
}

#[test]
fn gate_errors_name_their_line() {
    for (tag, body, expected) in [
        (
            "u3-line",
            "qreg q[2];\nh q[0];\nu3(1,2) q[0];\n",
            "line 5: gate u3 expects 3 parameters, got 2",
        ),
        ("unknown-line", "qreg q[2];\n\nfoo q[0];\n", "line 5: unknown gate `foo`"),
        ("duplicate-line", "qreg q[2];\ncx q[0],q[0];\n", "line 4: duplicate qubit operand 0"),
    ] {
        let (code, stderr) = compile_program(tag, body);
        assert_eq!(code, Some(1), "{stderr}");
        assert_eq!(stderr.lines().count(), 1, "{stderr}");
        assert!(stderr.ends_with(&format!("parse error at {expected}")), "{stderr}");
    }
}
