//! `giallar compile` at the edges of its input: an `ecr` program unrolls
//! into the `u1/u2/u3/cx` basis and certifies, and a pipeline failure is
//! reported as the error's one-line `Display` text, not its `Debug` form.

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
fn a_pipeline_failure_is_a_one_line_display_error() {
    // 4,000 random CNOTs over falcon27 need more than the 10,000 swaps the
    // standard pipeline's `LookaheadSwap` allows one circuit.
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
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "{stderr}");
    assert_eq!(
        stderr.trim_end(),
        format!(
            "error: compiling giallar-compile-swap-budget-{}: invariant violation: \
             LookaheadSwap did not terminate within 10000 swaps (non-termination bug)",
            std::process::id()
        )
    );
}
