//! QASM programs, `giallar serve` request lines, certificates and device
//! specs are untrusted input: `giallar compile` parses whatever file it is
//! given, the daemon decodes whatever a client writes, and `giallar
//! check-cert` checks whatever certificate it is handed.  Every mangled
//! input must parse or fail with a one-line error, in bounded time; every
//! QASM program that parses must carry finite parameters and survive a
//! print/parse round trip, and every mangled certificate must be refused.
//!
//! The cases are drawn from a fixed seed, in the manner of
//! `tests/cache_file_robustness.rs`: truncations, byte flips, 19–400-digit
//! numbers and `1e999`, deep nesting, control characters in names and ops,
//! certificates (in both formats) whose embedded input claims a register or
//! a wire far past the qubit ceiling under a correctly recomputed
//! fingerprint, and `giallar-cert/v2` gate rows of the wrong length, with a
//! non-integer or oversized wire, an unknown kind, or parameters on a
//! parameterless gate.

use std::time::{Duration, Instant};

use giallar::core::certificate::{check_certificate, circuit_fingerprint, EquivalenceCertificate};
use giallar::core::json::{self, Value};
use giallar::ir::qasm::{from_qasm, to_qasm};
use giallar::ir::{CouplingMap, Gate, MAX_QUBITS};
use giallar::serve::protocol::Request;
use giallar::symbolic::{SymCircuit, SymElement};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use support::cert_v1::v1_document;

mod support;

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
    assert_eq!(error, "parse error at line 2: unknown gate `h\\u{1b}[2J`");
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

/// The committed golden certificates the certificate cases mangle: the
/// `giallar-cert/v1` file and its `giallar-cert/v2` twin.
const GOLDEN: &str = include_str!("data/ghz_8_seed7_default.cert.json");
const GOLDEN_V2: &str = include_str!("data/ghz_8_seed7_default.v2.cert.json");

/// Gate rows every decoder must refuse, each with the refusal it names.
const BAD_ROWS: [(&str, &str); 8] = [
    (r#"["h", []]"#, "expected 3 to 5 elements, got 2"),
    (r#"["h", [], [0], [], null, 7]"#, "expected 3 to 5 elements, got 6"),
    (r#"["h", [], [0.5]]"#, "qubits: expected a non-negative integer"),
    (r#"["cx", [], [0, "1"]]"#, "qubits: expected a non-negative integer"),
    (r#"["h", [], [1024]]"#, "qubits: index 1024 is past the 1024-wire ceiling"),
    (r#"["x", [], [1000000000000]]"#, "qubits: index 1000000000000 is past the 1024-wire"),
    (r#"["hadamard", [], [0]]"#, "unknown gate `hadamard`"),
    (r#"["h", [0.5], [0]]"#, "gate h expects 0 parameters, got 1"),
];

/// The v2 golden with its `row`-th gate row (counting the input's rows,
/// then the output's) replaced by `with`.
fn with_row(row: usize, with: &str) -> String {
    let mut seen = 0;
    let mut out = String::new();
    for line in GOLDEN_V2.split_inclusive('\n') {
        let body = line.trim_start();
        if body.starts_with("[\"") && line.len() - body.len() == 6 {
            if seen == row {
                let comma = if body.trim_end().ends_with(',') { "," } else { "" };
                out.push_str(&format!("      {with}{comma}\n"));
                seen += 1;
                continue;
            }
            seen += 1;
        }
        out.push_str(line);
    }
    assert!(seen > row, "the v2 golden has only {seen} rows");
    out
}

/// The number of gate rows in the v2 golden.
fn golden_rows() -> usize {
    golden().input.len() + golden().output.len()
}

/// A register size far past the ceiling whose per-wire state, had a checker
/// allocated it, would take terabytes.
const HUGE: usize = 1_000_000_000_000;

/// The two certificate formats a checker reads.
#[derive(Clone, Copy, Debug)]
enum Schema {
    V1,
    V2,
}

/// `cert` with its embedded input replaced by `input` and the input
/// fingerprint recomputed, as anyone holding a certificate can do, encoded
/// in `schema`.
fn with_input(cert: &EquivalenceCertificate, input: SymCircuit, schema: Schema) -> String {
    let mut cert = cert.clone();
    cert.input_fingerprint = circuit_fingerprint(&input);
    cert.input = input;
    match schema {
        Schema::V1 => v1_document(&cert).to_pretty(),
        Schema::V2 => cert.to_json().to_pretty(),
    }
}

/// The golden certificate whose input claims `num_qubits` qubits, its
/// fingerprint recomputed: `tests/data/oversized_input{,.v2}.cert.json`.
fn oversized_register(num_qubits: usize, schema: Schema) -> String {
    let cert = golden();
    let mut input = SymCircuit::new(num_qubits);
    for element in cert.input.elements() {
        if let SymElement::Gate(gate) = element {
            input.push_gate(gate.clone());
        }
    }
    with_input(&cert, input, schema)
}

/// The golden certificate with one drawn input gate rewritten by `edit`,
/// its fingerprint recomputed, encoded in `schema`.
fn oversized_gate(rng: &mut StdRng, schema: Schema, edit: impl Fn(&mut Gate)) -> String {
    let cert = golden();
    let mut input = SymCircuit::new(cert.input.num_qubits());
    let target = rng.random_range(0..cert.input.len());
    for (i, element) in cert.input.elements().iter().enumerate() {
        if let SymElement::Gate(gate) = element {
            let mut gate = gate.clone();
            if i == target {
                edit(&mut gate);
            }
            input.push_gate(gate);
        }
    }
    with_input(&cert, input, schema)
}

fn golden() -> EquivalenceCertificate {
    EquivalenceCertificate::from_json(&json::parse(GOLDEN).unwrap()).unwrap()
}

/// Replaces the byte at a drawn structural position (one of `{}[]:,`
/// outside a string) with a different drawn printable byte.
fn flip_structure(text: &str, rng: &mut StdRng) -> String {
    let mut in_string = false;
    let mut escaped = false;
    let mut structural = Vec::new();
    for (i, b) in text.bytes().enumerate() {
        match (in_string, escaped, b) {
            (true, true, _) => escaped = false,
            (true, false, b'\\') => escaped = true,
            (_, false, b'"') => in_string = !in_string,
            (false, _, b'{' | b'}' | b'[' | b']' | b':' | b',') => structural.push(i),
            _ => {}
        }
    }
    let at = structural[rng.random_range(0..structural.len())];
    let mut bytes = text.as_bytes().to_vec();
    let original = bytes[at];
    while bytes[at] == original {
        bytes[at] = rng.random_range(0x20..0x7fu32) as u8;
    }
    String::from_utf8(bytes).expect("ASCII stays UTF-8")
}

/// One drawn mangling of a golden certificate (v1 or v2), each of which a
/// checker must refuse.
fn mangle_certificate(rng: &mut StdRng) -> String {
    let huge = [HUGE, MAX_QUBITS, usize::MAX >> 1][rng.random_range(0..3usize)];
    let (golden_text, schema) =
        [(GOLDEN, Schema::V1), (GOLDEN_V2, Schema::V2)][rng.random_range(0..2usize)];
    match rng.random_range(0..10u32) {
        0 => golden_text[..rng.random_range(0..golden_text.len())].to_string(),
        1 => flip_structure(golden_text, rng),
        2 => {
            let key = ["\"seed\": ", "\"register_width\": ", "\"num_qubits\": "];
            let key = key[rng.random_range(0..key.len())];
            let rest = golden_text.split_once(key).unwrap().1;
            let old: String = rest.chars().take_while(char::is_ascii_digit).collect();
            let number = [long_number(rng), "1e999".to_string(), "-1".to_string()];
            let number = &number[rng.random_range(0..number.len())];
            golden_text.replacen(&format!("{key}{old}"), &format!("{key}{number}"), 1)
        }
        3 => {
            let depth = rng.random_range(1..50_000usize);
            let nested = format!("{}{}", "[".repeat(depth), "]".repeat(depth));
            golden_text.replacen("\"wire_map\": ", &format!("\"wire_map\": {nested}, \"x\": "), 1)
        }
        4 => oversized_register(huge, schema),
        5 => oversized_gate(rng, schema, |gate| gate.clbits = vec![huge]),
        6 => oversized_gate(rng, schema, |gate| {
            *gate = gate.clone().with_classical_condition(huge, true);
        }),
        7 => oversized_gate(rng, schema, |gate| gate.qubits[0] = huge),
        8 => {
            let (row, _) = BAD_ROWS[rng.random_range(0..BAD_ROWS.len())];
            with_row(rng.random_range(0..golden_rows()), row)
        }
        _ => golden_text.replacen(
            "\"register_width\": 27",
            &format!("\"register_width\": {huge}"),
            1,
        ),
    }
}

#[test]
fn mangled_certificates_are_refused_with_one_line_in_bounded_time() {
    assert_eq!(check_certificate(&golden()), Ok(()));
    let mut rng = StdRng::seed_from_u64(0x6365_7274);
    for case in 0..200 {
        let text = mangle_certificate(&mut rng);
        let start = Instant::now();
        let result = json::parse(&text)
            .and_then(|value| EquivalenceCertificate::from_json(&value))
            .and_then(|cert| check_certificate(&cert));
        let elapsed = start.elapsed();
        assert!(elapsed < CAP, "case {case} took {elapsed:?}");
        let error = result.expect_err(&format!("case {case}: a mangled certificate checked"));
        assert_one_line(case, &error, &text[..text.len().min(400)]);
    }
}

#[test]
fn oversized_registers_are_refused_while_decoding() {
    let too_wide = "`num_qubits` 1000000000000 exceeds the 1024-qubit ceiling";
    let wide_register = "`register_width` 1025 exceeds the 1024-qubit ceiling";
    for (text, reason) in [
        (OVERSIZED_V1.to_string(), too_wide),
        (OVERSIZED_V2.to_string(), too_wide),
        (GOLDEN.replacen("\"register_width\": 27", "\"register_width\": 1025", 1), wide_register),
        (
            GOLDEN_V2.replacen("\"register_width\": 27", "\"register_width\": 1025", 1),
            wide_register,
        ),
    ] {
        let error = EquivalenceCertificate::from_json(&json::parse(&text).unwrap()).unwrap_err();
        assert!(error.contains(reason), "{error}");
    }
    // Each per-gate cap, in both formats: the wires of one input gate.
    let mut rng = StdRng::seed_from_u64(1);
    for schema in [Schema::V1, Schema::V2] {
        for (text, reason) in [
            (oversized_register(HUGE, schema), too_wide),
            (
                oversized_gate(&mut rng, schema, |gate| gate.qubits[0] = HUGE),
                "qubits: index 1000000000000 is past the 1024-wire ceiling",
            ),
            (
                oversized_gate(&mut rng, schema, |gate| gate.clbits = vec![HUGE]),
                "clbits: index 1000000000000 is past the 1024-wire ceiling",
            ),
            (
                oversized_gate(&mut rng, schema, |gate| {
                    *gate = gate.clone().with_classical_condition(HUGE, false);
                }),
                "condition bit: index 1000000000000 is past the 1024-wire ceiling",
            ),
        ] {
            let error =
                EquivalenceCertificate::from_json(&json::parse(&text).unwrap()).unwrap_err();
            assert!(error.contains(reason), "{schema:?}: {error}");
        }
    }
}

#[test]
fn mangled_gate_rows_are_refused_with_one_line_naming_the_row() {
    let rows = golden_rows();
    for (case, (row, reason)) in BAD_ROWS.iter().enumerate() {
        for at in [0, rows / 2, rows - 1] {
            let text = with_row(at, row);
            let error =
                EquivalenceCertificate::from_json(&json::parse(&text).unwrap()).unwrap_err();
            let side = if at < golden().input.len() { "input" } else { "output" };
            let index = if side == "input" { at } else { at - golden().input.len() };
            let prefix = format!("certificate {side}: gate row {index}: ");
            assert!(error.starts_with(&prefix) && error.contains(reason), "{row}: {error}");
            assert_one_line(case, &error, row);
        }
    }
}

/// The committed oversized certificates CI checks under a memory limit.
const OVERSIZED_V1: &str = include_str!("data/oversized_input.cert.json");
const OVERSIZED_V2: &str = include_str!("data/oversized_input.v2.cert.json");

#[test]
fn the_committed_oversized_certificate_is_the_generated_one() {
    assert_eq!(OVERSIZED_V1, oversized_register(HUGE, Schema::V1));
    assert_eq!(OVERSIZED_V2, oversized_register(HUGE, Schema::V2));
}

/// One drawn mangling of a device spec.
fn mangle_spec(rng: &mut StdRng) -> String {
    let base = ["falcon27", "line:5", "grid:5x6", "grid:2x3"][rng.random_range(0..4usize)];
    match rng.random_range(0..5u32) {
        0 | 1 => truncate_or_flip(base, rng),
        2 => {
            let number = [long_number(rng), "1025".to_string(), "0".to_string(), "-1".to_string()];
            let number = &number[rng.random_range(0..number.len())];
            match rng.random_range(0..3u32) {
                0 => format!("line:{number}"),
                1 => format!("grid:{number}x6"),
                _ => format!("grid:5x{number}"),
            }
        }
        3 => format!("{base}{}", hostile_text(rng)),
        _ => hostile_text(rng),
    }
}

#[test]
fn mangled_device_specs_build_or_fail_with_one_line_in_bounded_time() {
    let mut rng = StdRng::seed_from_u64(0x6465_7669_6365);
    let mut refused = 0;
    for case in 0..600 {
        let spec = mangle_spec(&mut rng);
        let start = Instant::now();
        let result = CouplingMap::from_spec(&spec);
        let elapsed = start.elapsed();
        assert!(elapsed < CAP, "case {case} took {elapsed:?}");
        match result {
            Ok(device) => assert!(device.num_qubits() <= MAX_QUBITS, "case {case}: {spec:?}"),
            Err(error) => {
                refused += 1;
                assert_one_line(case, &error, &spec);
            }
        }
    }
    assert!(refused > 300, "only {refused} of 600 mangled device specs were refused");
}
