//! `giallar verify --jobs` must never change what the verifier says: the
//! flag bounds the rayon pool for obligation generation *and* the batched
//! work-stealing group discharge, and the sequential registry-order fold
//! guarantees the report is a pure function of the pass list and backend.
//! These tests pin that contract at the process boundary.

use std::process::Command;

fn verify_stdout(extra: &[&str]) -> (Vec<u8>, Option<i32>) {
    let output = Command::new(env!("CARGO_BIN_EXE_giallar"))
        .arg("verify")
        .arg("--deterministic")
        .args(extra)
        .output()
        .expect("run giallar verify");
    (output.stdout, output.status.code())
}

#[test]
fn jobs_one_report_is_byte_identical_to_the_default_pool() {
    let (default_pool, default_code) = verify_stdout(&[]);
    let (sequential, sequential_code) = verify_stdout(&["--jobs", "1"]);
    assert_eq!(default_code, Some(0));
    assert_eq!(sequential_code, Some(0));
    assert!(!default_pool.is_empty(), "verify produced no report");
    assert_eq!(
        default_pool, sequential,
        "--jobs 1 must produce a byte-identical deterministic report"
    );
}

#[test]
fn jobs_one_matches_a_wide_pool_under_every_backend() {
    for backend in ["default", "reference"] {
        let (wide, wide_code) = verify_stdout(&["--backend", backend, "--jobs", "8"]);
        let (narrow, narrow_code) = verify_stdout(&["--backend", backend, "--jobs", "1"]);
        assert_eq!(wide_code, Some(0), "backend {backend}");
        assert_eq!(narrow_code, Some(0), "backend {backend}");
        assert_eq!(wide, narrow, "scheduling leaked into the {backend} report");
    }
}

#[test]
fn a_retired_backend_is_refused_not_rerouted() {
    let output = Command::new(env!("CARGO_BIN_EXE_giallar"))
        .args(["verify", "--backend", "saturate"])
        .output()
        .expect("run giallar verify");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "stderr: {stderr}");
    assert_eq!(
        stderr.trim_end(),
        "error: --backend: unknown backend `saturate`; known backends: default, reference"
    );
    assert!(output.stdout.is_empty(), "a refused run must not print a report");
}
