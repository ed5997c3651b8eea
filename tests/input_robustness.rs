//! QASM programs and `giallar serve` request lines are untrusted input:
//! `giallar compile` parses whatever file it is given, and the daemon
//! decodes whatever a client writes.  Every mangled input must parse or fail
//! with a one-line error, in bounded time; every QASM program that parses
//! must carry finite parameters and survive a print/parse round trip.
//!
//! The cases are drawn from a fixed seed, in the manner of
//! `tests/cache_file_robustness.rs`: truncations, byte flips, 19–400-digit
//! numbers and `1e999`, deep nesting, and control characters in names and
//! ops.

use std::time::{Duration, Instant};

use giallar::core::json::Value;
use giallar::ir::qasm::{from_qasm, to_qasm};
use giallar::serve::protocol::Request;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Wall-clock cap per parse (debug build, shared machine).
const CAP: Duration = Duration::from_secs(1);

/// A valid program touching every statement form the parser accepts.
const PROGRAM: &str = "OPENQASM 2.0;
include \"qelib1.inc\";
// a comment
qreg q[3];
qreg r[3];
creg c[3];
h q[0];
cx q[0],q[1];
rz(0.5) q[2];
u3(pi/2, -pi/4, (1+2)*0.25) q[1];
cp(pi/8) q[2],r[0];
cx q,r;
barrier q[0],q[1],r;
reset r[2];
measure q -> c;
";

/// Valid request lines covering every op with members.
const REQUESTS: [&str; 6] = [
    r#"{"schema":"giallar-serve/v2","id":1,"op":"status"}"#,
    r#"{"schema":"giallar-serve/v2","id":2,"op":"verify","passes":["CXCancellation","GateDirection"],"backend":"default"}"#,
    r#"{"schema":"giallar-serve/v1","id":3,"op":"compile","circuit":"ghz_8","device":"falcon27","seed":7}"#,
    r#"{"schema":"giallar-serve/v2","id":4,"op":"certify","circuit":"qft_16","device":"grid:5x6","seed":2,"backend":"reference"}"#,
    r#"{"schema":"giallar-serve/v2","id":5,"op":"invalidate","pass":"Unroller","backend":"default"}"#,
    r#"{"schema":"giallar-serve/v2","id":6,"op":"compact","retired_backends":["saturate"]}"#,
];

/// A short string mixing printable text with control characters.
fn hostile_text(rng: &mut StdRng) -> String {
    const PIECES: [&str; 10] =
        ["a", "\u{1}", "\r", "\t", "\u{1b}[2J", "\0", "b", "\u{7f}", "é", "`"];
    let len = rng.random_range(1..80usize);
    (0..len).map(|_| PIECES[rng.random_range(0..PIECES.len())]).collect()
}

/// Replaces the first occurrence of one of `targets` (drawn) in `base`.
fn replace_one(base: &str, targets: &[&str], with: &str, rng: &mut StdRng) -> String {
    base.replacen(targets[rng.random_range(0..targets.len())], with, 1)
}

/// The mangles both input kinds share: truncation and byte flips.
fn truncate_or_flip(base: &str, rng: &mut StdRng) -> String {
    if rng.random_range(0..2u32) == 0 {
        return base[..rng.random_range(0..base.len())].to_string();
    }
    let mut bytes = base.as_bytes().to_vec();
    for _ in 0..rng.random_range(1..4usize) {
        let at = rng.random_range(0..bytes.len());
        bytes[at] = rng.random_range(0..0x80u32) as u8;
    }
    String::from_utf8(bytes).expect("ASCII stays UTF-8")
}

/// A 19–400-digit number, with a decimal point half of the time.
fn long_number(rng: &mut StdRng) -> String {
    let mut digits = "9".repeat(rng.random_range(19..400usize));
    if rng.random_range(0..2u32) == 0 {
        digits.insert(rng.random_range(1..digits.len()), '.');
    }
    digits
}

/// One drawn mangling of the QASM program.
fn mangle_qasm(rng: &mut StdRng) -> String {
    let params = ["0.5", "pi/2", "pi/8", "(1+2)*0.25"];
    match rng.random_range(0..8u32) {
        0 | 1 => truncate_or_flip(PROGRAM, rng),
        2 => replace_one(PROGRAM, &params, &long_number(rng), rng),
        3 => {
            let bad = ["1e999", "-1e999", "pi/0", "0/0", "1e308*10", "1e-999"];
            replace_one(PROGRAM, &params, bad[rng.random_range(0..bad.len())], rng)
        }
        4 => {
            let depth = rng.random_range(1..50_000usize);
            let nested = match rng.random_range(0..3u32) {
                0 => format!("{}1{}", "(".repeat(depth), ")".repeat(depth)),
                1 => format!("{}1", "-".repeat(depth)),
                _ => format!("{}1", "(".repeat(depth)),
            };
            replace_one(PROGRAM, &params, &nested, rng)
        }
        5 => replace_one(PROGRAM, &["h q", "rz(", "reset", "cx q,"], &hostile_text(rng), rng),
        6 => {
            let op = ["gate ", "opaque ", "if(", ""][rng.random_range(0..4usize)];
            replace_one(PROGRAM, &["h q[0]", "barrier"], &format!("{op}{}", hostile_text(rng)), rng)
        }
        _ => {
            let size = [long_number(rng), "1025".to_string(), "0".to_string()];
            let size = &size[rng.random_range(0..size.len())];
            replace_one(PROGRAM, &["q[3]", "r[3]", "c[3]"], &format!("q[{size}]"), rng)
        }
    }
}

/// `text` as a JSON string literal.
fn literal(text: &str) -> String {
    Value::String(text.to_string()).to_compact()
}

/// One drawn mangling of one of the request lines.
fn mangle_request(rng: &mut StdRng) -> String {
    let base = REQUESTS[rng.random_range(0..REQUESTS.len())];
    match rng.random_range(0..6u32) {
        0 | 1 => truncate_or_flip(base, rng),
        2 => {
            let number = [long_number(rng), "1e999".to_string(), "-1e999".to_string()];
            let number = &number[rng.random_range(0..number.len())];
            let key = if base.contains("\"seed\":") { "\"seed\":" } else { "\"id\":" };
            let old = base.split(key).nth(1).unwrap();
            let old: String = old.chars().take_while(char::is_ascii_digit).collect();
            base.replacen(&format!("{key}{old}"), &format!("{key}{number}"), 1)
        }
        3 => {
            let depth = rng.random_range(1..50_000usize);
            let nested = format!("{}{}", "[".repeat(depth), "]".repeat(depth));
            base.replacen("\"id\":", &format!("\"deep\":{nested},\"id\":"), 1)
        }
        4 => {
            let hostile = literal(&hostile_text(rng));
            let targets = ["\"status\"", "\"verify\"", "\"compile\"", "\"certify\"", "\"compact\""];
            let line = replace_one(base, &targets, &hostile, rng);
            let schema = ["\"giallar-serve/v2\"", "\"giallar-serve/v1\""];
            if line == base {
                replace_one(base, &schema, &hostile, rng)
            } else {
                line
            }
        }
        _ => {
            let hostile = literal(&hostile_text(rng));
            let targets = ["\"default\"", "\"reference\"", "\"CXCancellation\"", "\"ghz_8\""];
            let line = replace_one(base, &targets, &hostile, rng);
            if line == base {
                base.replacen("\"id\":", &format!("\"backend\":{hostile},\"id\":"), 1)
            } else {
                line
            }
        }
    }
}

/// Asserts that `error` is one short line.
fn assert_one_line(case: usize, error: &str, input: &str) {
    assert!(
        !error.chars().any(char::is_control) && error.chars().count() <= 160,
        "case {case}: not a one-line error: {error:?}\nfrom {input:?}"
    );
}

#[test]
fn mangled_qasm_parses_or_fails_with_one_line_in_bounded_time() {
    let base = from_qasm(PROGRAM).unwrap();
    assert_eq!(from_qasm(&to_qasm(&base).unwrap()).unwrap(), base);
    let mut rng = StdRng::seed_from_u64(0x7161_736d);
    let mut refused = 0;
    for case in 0..600 {
        let text = mangle_qasm(&mut rng);
        let start = Instant::now();
        let result = from_qasm(&text);
        let elapsed = start.elapsed();
        assert!(elapsed < CAP, "case {case} took {elapsed:?}");
        match result {
            Ok(circuit) => {
                for gate in circuit.iter() {
                    let params = gate.kind.params();
                    assert!(params.iter().all(|p| p.is_finite()), "case {case}: {params:?}");
                }
                let printed = to_qasm(&circuit).unwrap();
                let reparsed = from_qasm(&printed)
                    .unwrap_or_else(|e| panic!("case {case}: {e}\nprinted {printed:?}"));
                assert_eq!(reparsed, circuit, "case {case}: round trip moved\nfrom {text:?}");
            }
            Err(error) => {
                refused += 1;
                assert_one_line(case, &error.to_string(), &text);
            }
        }
    }
    assert!(refused > 150, "only {refused} of 600 mangled programs were refused");
}

#[test]
fn mangled_request_lines_decode_or_fail_with_one_line_in_bounded_time() {
    for line in REQUESTS {
        assert!(Request::from_line(line).is_ok(), "{line}");
    }
    let mut rng = StdRng::seed_from_u64(0x0073_6572_7665);
    let mut refused = 0;
    for case in 0..600 {
        let line = mangle_request(&mut rng);
        let start = Instant::now();
        let result = Request::from_line(&line);
        let elapsed = start.elapsed();
        assert!(elapsed < CAP, "case {case} took {elapsed:?}");
        if let Err(error) = result {
            refused += 1;
            assert_one_line(case, &error, &line);
        }
    }
    assert!(refused > 150, "only {refused} of 600 mangled request lines were refused");
}

#[test]
fn echoed_names_are_escaped_and_clamped() {
    let error = from_qasm("qreg q[1];\nh\u{1b}[2J q[0];").unwrap_err().to_string();
    assert_eq!(error, "unsupported: unknown gate `h\\u{1b}[2J`");
    let long = format!("gate {};", "x\u{1}".repeat(100));
    let error = from_qasm(&long).unwrap_err().to_string();
    assert!(error.starts_with("unsupported: line 1: `gate x\\u{1}x"), "{error}");
    assert!(error.ends_with("…` is outside the supported OpenQASM subset"), "{error}");
    let line = r#"{"schema":"giallar-serve/v2","id":1,"op":"a\nb"}"#;
    assert_eq!(Request::from_line(line).unwrap_err(), "request: unknown op `a\\nb`");
    let line = format!(
        r#"{{"schema":"giallar-serve/v2","id":1,"op":"verify","backend":{}}}"#,
        literal(&"\u{7f}".repeat(300))
    );
    let error = Request::from_line(&line).unwrap_err();
    assert!(error.starts_with("request: unknown backend `\\u{7f}"), "{error}");
    assert!(error.ends_with("…`") && error.len() <= 160, "{error}");
}
