//! `giallar fuzz --generate` on generator-rejected inputs: every invalid
//! configuration must exit 1 with a clean one-line error naming the
//! offending flag — never a panic, a usage dump, or a silent success.

use std::process::{Command, Output};

fn giallar() -> Command {
    Command::new(env!("CARGO_BIN_EXE_giallar"))
}

/// Asserts the common contract: exit code 1 (a generator rejection, not a
/// usage error or crash), one error line naming the flag, no panic output.
fn assert_clean_rejection(output: &Output, flag: &str) {
    let stderr = String::from_utf8_lossy(&output.stderr);
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert_eq!(output.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains(flag), "error does not name {flag}: {stderr}");
    assert_eq!(stderr.trim_end().lines().count(), 1, "multi-line error: {stderr}");
    for text in [&stderr, &stdout] {
        assert!(!text.contains("panicked"), "panic leaked: {text}");
        assert!(!text.contains("RUST_BACKTRACE"), "backtrace hint leaked: {text}");
    }
}

#[test]
fn zero_width_is_rejected_naming_the_flag() {
    let output = giallar().args(["fuzz", "--generate", "--width", "0"]).output().unwrap();
    assert_clean_rejection(&output, "--width");
}

#[test]
fn width_beyond_the_device_is_rejected_naming_the_flag() {
    let output = giallar().args(["fuzz", "--generate", "--width", "7"]).output().unwrap();
    assert_clean_rejection(&output, "--width");
}

#[test]
fn zero_circuits_is_rejected_naming_the_flag() {
    let output = giallar().args(["fuzz", "--generate", "--circuits", "0"]).output().unwrap();
    assert_clean_rejection(&output, "--circuits");
}

#[test]
fn zero_depth_is_rejected_naming_the_flag() {
    let output = giallar().args(["fuzz", "--generate", "--depth", "0"]).output().unwrap();
    assert_clean_rejection(&output, "--depth");
}

#[test]
fn oversized_depth_is_rejected_naming_the_flag() {
    let output = giallar().args(["fuzz", "--generate", "--depth", "513"]).output().unwrap();
    assert_clean_rejection(&output, "--depth");
}

#[test]
fn empty_alphabet_is_rejected_naming_the_flag() {
    let output = giallar().args(["fuzz", "--generate", "--alphabet", ""]).output().unwrap();
    assert_clean_rejection(&output, "--alphabet");
}

#[test]
fn unknown_alphabet_preset_is_rejected_naming_the_flag() {
    let output =
        giallar().args(["fuzz", "--generate", "--alphabet", "toffoli-only"]).output().unwrap();
    assert_clean_rejection(&output, "--alphabet");
}

#[test]
fn generative_flags_without_generate_are_usage_errors() {
    for flag in ["--circuits", "--width", "--depth", "--alphabet"] {
        let output = giallar().args(["fuzz", flag, "3"]).output().unwrap();
        assert_eq!(output.status.code(), Some(2), "{flag} should be a usage error");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains(flag), "usage error does not name {flag}: {stderr}");
    }
}

#[test]
fn tiny_generative_campaign_succeeds_and_reports() {
    let output = giallar()
        .args(["fuzz", "--generate", "--circuits", "2", "--alphabet", "basis"])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(0), "stdout: {stdout}\nstderr: {stderr}");
    assert!(stdout.contains("generative campaign:"), "missing summary: {stdout}");
    assert!(stdout.contains("0 survivors"), "missing survivor count: {stdout}");
}
