//! `giallar check-cert` on broken certificate files: every failure mode
//! must produce a clean one-line error naming the offending file — never a
//! panic or a raw parser backtrace.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn giallar() -> Command {
    Command::new(env!("CARGO_BIN_EXE_giallar"))
}

fn temp_file(name: &str, contents: &[u8]) -> PathBuf {
    let path =
        std::env::temp_dir().join(format!("giallar-check-cert-{}-{name}", std::process::id()));
    std::fs::write(&path, contents).expect("write temp certificate");
    path
}

/// Asserts the common contract: exit code 1 (a failure, not a usage error
/// or crash), an error line naming the file, and no panic output.
fn assert_clean_failure(output: &Output, path: &Path) {
    let stderr = String::from_utf8_lossy(&output.stderr);
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert_eq!(output.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains(path.to_str().unwrap()), "error does not name the file: {stderr}");
    // One line of diagnostics, not a backtrace dump.
    assert_eq!(stderr.trim_end().lines().count(), 1, "multi-line error: {stderr}");
    for text in [&stderr, &stdout] {
        assert!(!text.contains("panicked"), "panic leaked: {text}");
        assert!(!text.contains("RUST_BACKTRACE"), "backtrace hint leaked: {text}");
    }
}

#[test]
fn empty_certificate_file_reports_a_clean_error() {
    let path = temp_file("empty.json", b"");
    let output = giallar().args(["check-cert", path.to_str().unwrap()]).output().unwrap();
    assert_clean_failure(&output, &path);
    std::fs::remove_file(&path).ok();
}

#[test]
fn non_json_certificate_file_reports_a_clean_error() {
    let path = temp_file("garbage.json", b"\xff\xfenot json at all {{{");
    let output = giallar().args(["check-cert", path.to_str().unwrap()]).output().unwrap();
    assert_clean_failure(&output, &path);
    std::fs::remove_file(&path).ok();
}

#[test]
fn truncated_certificate_file_reports_a_clean_error() {
    // Well-formed prefix of a real certificate, cut mid-object.
    let path = temp_file(
        "truncated.json",
        br#"{"schema": "giallar-cert/v1", "circuit": "bell", "device": "line:6", "pipe"#,
    );
    let output = giallar().args(["check-cert", path.to_str().unwrap()]).output().unwrap();
    assert_clean_failure(&output, &path);
    std::fs::remove_file(&path).ok();
}

#[test]
fn valid_json_that_is_not_a_certificate_reports_a_clean_error() {
    let path = temp_file("shape.json", br#"{"schema": "giallar-cert/v1", "surprise": 42}"#);
    let output = giallar().args(["check-cert", path.to_str().unwrap()]).output().unwrap();
    assert_clean_failure(&output, &path);
    std::fs::remove_file(&path).ok();
}

#[test]
fn missing_certificate_file_reports_a_clean_error() {
    let path = std::env::temp_dir().join("giallar-check-cert-definitely-missing.json");
    std::fs::remove_file(&path).ok();
    let output = giallar().args(["check-cert", path.to_str().unwrap()]).output().unwrap();
    assert_clean_failure(&output, &path);
}

#[test]
fn certificate_under_a_retired_selection_is_refused_with_a_clean_error() {
    // Emit a real certificate, then relabel it the way the retired
    // backend routing used to write it.
    let path = std::env::temp_dir()
        .join(format!("giallar-check-cert-{}-retired-selection.json", std::process::id()));
    let emitted = giallar()
        .args(["compile", "bell", "--device", "line:6", "--certify", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(emitted.status.code(), Some(0), "{}", String::from_utf8_lossy(&emitted.stderr));
    let text = std::fs::read_to_string(&path).unwrap();
    let retired = text
        .replace(r#""selection": "default""#, r#""selection": "saturate""#)
        .replace(r#""backend": "rewrite-equiv""#, r#""backend": "saturate-equiv""#);
    assert_ne!(retired, text, "the certificate layout changed; relabel it differently");
    std::fs::write(&path, retired).unwrap();
    let output = giallar().args(["check-cert", path.to_str().unwrap()]).output().unwrap();
    assert_clean_failure(&output, &path);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("certificate: unknown selection `saturate`"), "{stderr}");
    std::fs::remove_file(&path).ok();
}
