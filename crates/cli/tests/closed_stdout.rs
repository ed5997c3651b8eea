//! A reader that stops early (`giallar fuzz --format json | head -c 100`)
//! closes the pipe under the CLI; the CLI then stops quietly instead of
//! panicking with "failed printing to stdout".

use std::io::Read;
use std::process::{Command, Stdio};

#[test]
fn a_closed_stdout_ends_the_run_quietly() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_giallar"))
        .args(["fuzz", "--seed", "0xg1allar", "--format", "json"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    // The report is larger than a pipe buffer, so the CLI is still writing
    // when the read end closes.
    let mut head = [0u8; 100];
    child.stdout.take().unwrap().read_exact(&mut head).unwrap();
    assert!(head.starts_with(b"{"), "{}", String::from_utf8_lossy(&head));
    let output = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(output.status.code(), Some(0), "{stderr}");
}
