//! The JSON string scanner: strings mixing every UTF-8 width with escapes
//! and control characters round-trip through both writers, `\u` escapes
//! written by other tools (surrogate pairs included) decode, and parsing is
//! linear in document size.
//!
//! The parser's integer fast path and the allocation-free writers are
//! checked differentially: seeded numerals parse exactly as
//! `str::parse::<i64>`/`<f64>` read them, and seeded documents render
//! byte-identically to the straightforward writer kept below as
//! [`reference`].  The one-line gate rows of a `giallar-cert/v2`
//! certificate, mangled, fail to parse or to decode with one line naming
//! where.

use std::time::{Duration, Instant};

use giallar::core::certificate::EquivalenceCertificate;
use giallar::core::json::{self, Value};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Strategy: one character from a chosen UTF-8 width or escape class.
fn piece() -> impl Strategy<Value = char> {
    // Three-byte scalars skip the surrogate block, which no `char` holds.
    let three_byte = (0x800u32..0xf800).prop_map(|c| if c >= 0xd800 { c + 0x800 } else { c });
    prop_oneof![
        (0x20u32..0x7f).prop_map(|c| char::from_u32(c).unwrap()),
        (0x80u32..0x800).prop_map(|c| char::from_u32(c).unwrap()),
        three_byte.prop_map(|c| char::from_u32(c).unwrap()),
        (0x10000u32..0x110000).prop_map(|c| char::from_u32(c).unwrap()),
        (0usize..6).prop_map(|i| ['"', '\\', '/', '\n', '\r', '\t'][i]),
        (0u32..0x20).prop_map(|c| char::from_u32(c).unwrap()),
    ]
}

/// Strategy: a string built from runs of pieces, so escapes and control
/// characters land right next to multi-byte runs.
fn mixed_string() -> impl Strategy<Value = String> {
    prop::collection::vec((piece(), 1usize..4), 0..24)
        .prop_map(|runs| runs.into_iter().flat_map(|(c, n)| std::iter::repeat_n(c, n)).collect())
}

/// Encodes a string the way Python's `json.dumps` does with its default
/// `ensure_ascii`: every non-ASCII scalar becomes `\uXXXX`, scalars beyond
/// the BMP a surrogate pair.
fn ensure_ascii(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c.is_ascii() && !c.is_ascii_control() => out.push(c),
            c => {
                let mut units = [0u16; 2];
                for unit in c.encode_utf16(&mut units) {
                    out.push_str(&format!("\\u{unit:04x}"));
                }
            }
        }
    }
    out.push('"');
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn mixed_strings_round_trip_through_both_writers(key in mixed_string(), value in mixed_string()) {
        let doc = Value::Object(vec![
            (key.clone(), Value::Array(vec![Value::String(value.clone()), Value::Int(7)])),
            (value, Value::String(key)),
        ]);
        for encoded in [doc.to_pretty(), doc.to_compact()] {
            prop_assert_eq!(json::parse(&encoded).unwrap(), doc.clone());
        }
    }

    #[test]
    fn ascii_only_escapes_decode_to_the_original(text in mixed_string()) {
        let parsed = json::parse(&ensure_ascii(&text)).unwrap();
        prop_assert_eq!(parsed.as_str(), Some(text.as_str()));
    }
}

/// A ~4 MB document: one long string mixing every UTF-8 width, then an
/// array of many short strings.  Linear parsing takes milliseconds even in
/// a debug build; the quadratic scanner needed hours.
#[test]
fn a_four_megabyte_document_parses_in_linear_time() {
    let long: String = "ascii é € 😀 ".repeat(120_000);
    let short: Vec<Value> = (0..150_000).map(|i| Value::String(format!("w{i}\u{e9}\n"))).collect();
    let doc = Value::Object(vec![
        ("long".to_string(), Value::String(long)),
        ("short".to_string(), Value::Array(short)),
    ]);
    let text = doc.to_compact();
    assert!(text.len() > 4_000_000, "document is {} bytes", text.len());
    let start = Instant::now();
    let parsed = json::parse(&text).unwrap();
    let elapsed = start.elapsed();
    assert_eq!(parsed, doc);
    assert!(elapsed < Duration::from_secs(5), "parsing {} bytes took {elapsed:?}", text.len());
}

/// The writer as it was before it appended numbers and indents in place:
/// every number went through `to_string`/`format!`, every character of a
/// string through its own `push`.
mod reference {
    use giallar::core::json::Value;

    pub fn pretty(value: &Value) -> String {
        let mut out = String::new();
        write_pretty(value, &mut out, 0);
        out.push('\n');
        out
    }

    pub fn compact(value: &Value) -> String {
        let mut out = String::new();
        write_compact(value, &mut out);
        out
    }

    fn write_compact(value: &Value, out: &mut String) {
        match value {
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_compact(item, out);
                }
                out.push(']');
            }
            Value::Object(members) => {
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, key);
                    out.push(':');
                    write_compact(value, out);
                }
                out.push('}');
            }
            scalar => write_scalar(scalar, out),
        }
    }

    fn write_pretty(value: &Value, out: &mut String, indent: usize) {
        match value {
            Value::Array(items) if items.is_empty() => out.push_str("[]"),
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_pretty(item, out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Value::Object(members) if members.is_empty() => out.push_str("{}"),
            Value::Object(members) => {
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_escaped(out, key);
                    out.push_str(": ");
                    write_pretty(value, out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
            scalar => write_scalar(scalar, out),
        }
    }

    fn write_scalar(value: &Value, out: &mut String) {
        match value {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Int(v) => out.push_str(&v.to_string()),
            Value::Float(v) => out.push_str(&format_float(*v)),
            Value::String(s) => write_escaped(out, s),
            Value::Array(_) | Value::Object(_) => unreachable!("containers are written above"),
        }
    }

    fn push_indent(out: &mut String, indent: usize) {
        for _ in 0..indent {
            out.push_str("  ");
        }
    }

    fn format_float(v: f64) -> String {
        if !v.is_finite() {
            return "null".to_string();
        }
        let s = format!("{v}");
        if s.contains('.') || s.contains('e') || s.contains('E') {
            s
        } else {
            format!("{s}.0")
        }
    }

    fn write_escaped(out: &mut String, s: &str) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
    }
}

/// A drawn numeral in the scanner's grammar: an optional `-`, 0–25 digits
/// (leading zeros included), an optional fraction and an optional
/// exponent.  Zero digits give a lone `-` or an empty integer part.
fn numeral(rng: &mut StdRng) -> String {
    let digits = |rng: &mut StdRng, max: usize| -> String {
        let len = rng.random_range(0..max + 1);
        let zeros = rng.random_range(0..4u32) == 0;
        (0..len)
            .map(|i| {
                if zeros && i < 3 {
                    '0'
                } else {
                    char::from(b'0' + rng.random_range(0..10u32) as u8)
                }
            })
            .collect()
    };
    let mut text = String::new();
    if rng.random_range(0..2u32) == 0 {
        text.push('-');
    }
    text.push_str(&digits(rng, 25));
    if rng.random_range(0..4u32) == 0 {
        text.push('.');
        text.push_str(&digits(rng, 6));
    }
    if rng.random_range(0..4u32) == 0 {
        text.push(['e', 'E'][rng.random_range(0..2usize)]);
        if rng.random_range(0..2u32) == 0 {
            text.push(['+', '-'][rng.random_range(0..2usize)]);
        }
        text.push_str(&digits(rng, 3));
    }
    text
}

/// What a numeral reads as through the standard library.
fn std_numeral(text: &str) -> Result<Value, String> {
    if text.contains(['.', 'e', 'E']) {
        text.parse::<f64>().map(Value::Float).map_err(|e| format!("bad number: {e}"))
    } else {
        text.parse::<i64>().map(Value::Int).map_err(|e| format!("bad number: {e}"))
    }
}

#[test]
fn numerals_parse_exactly_as_the_standard_library_reads_them() {
    let mut fixed: Vec<String> = ["-", "-0", "0", "00", "007", "-007", "-0.0", "1e5", "1.", "-."]
        .iter()
        .map(|s| s.to_string())
        .collect();
    for len in 1..=25 {
        fixed.push("9".repeat(len));
        fixed.push(format!("-{}", "9".repeat(len)));
        fixed.push(format!("1{}", "0".repeat(len - 1)));
    }
    fixed.extend(
        ["9223372036854775807", "-9223372036854775808", "9223372036854775808"].map(String::from),
    );
    let mut rng = StdRng::seed_from_u64(0x6e75_6d65_7261_6c73);
    let drawn = (0..20_000).map(|_| numeral(&mut rng));
    // Only a sign or a digit starts a number; anything else is another token.
    let starts_a_number =
        |text: &String| text.starts_with(|c: char| c == '-' || c.is_ascii_digit());
    for text in fixed.into_iter().chain(drawn).filter(starts_a_number) {
        // `{:?}` tells `0.0` from `-0.0` and prints every float exactly.
        let parsed = format!("{:?}", json::parse(&text));
        assert_eq!(parsed, format!("{:?}", std_numeral(&text)), "numeral {text:?}");
        let in_array = format!("{:?}", json::parse(&format!("[{text}]")));
        assert_eq!(in_array, format!("{:?}", std_numeral(&text).map(|v| Value::Array(vec![v]))));
    }
}

/// A drawn string mixing plain runs, multi-byte characters, escapes and
/// control characters.
fn drawn_string(rng: &mut StdRng) -> String {
    const PIECES: [&str; 12] =
        ["plain", "é", "€", "😀", "\"", "\\", "\n", "\r", "\t", "\u{1}", "\u{1f}", "/"];
    let len = rng.random_range(0..8usize);
    (0..len).map(|_| PIECES[rng.random_range(0..PIECES.len())]).collect()
}

/// A drawn document up to `depth` containers deep.
fn document(rng: &mut StdRng, depth: usize) -> Value {
    let ints = [0, 1, -1, 9, 10, -10, i64::MAX, i64::MIN, 1 << 40];
    let floats = [0.0, -0.0, 1.0, -2.5e-8, 1e300, 5e-324, 0.1 + 0.2, 123456.789, f64::NAN, 1e21];
    match rng.random_range(0..if depth == 0 { 6u32 } else { 8 }) {
        0 => Value::Null,
        1 => Value::Bool(rng.random_range(0..2u32) == 0),
        2 => Value::Int(if rng.random_range(0..2u32) == 0 {
            ints[rng.random_range(0..ints.len())]
        } else {
            rng.random_range(0..u64::MAX) as i64
        }),
        3 => Value::Float(if rng.random_range(0..2u32) == 0 {
            floats[rng.random_range(0..floats.len())]
        } else {
            f64::from_bits(rng.random_range(0..u64::MAX))
        }),
        4 | 5 => Value::String(drawn_string(rng)),
        6 => Value::Array(
            (0..rng.random_range(0..4usize)).map(|_| document(rng, depth - 1)).collect(),
        ),
        _ => Value::Object(
            (0..rng.random_range(0..4usize))
                .map(|_| (drawn_string(rng), document(rng, depth - 1)))
                .collect(),
        ),
    }
}

/// Wraps `value` in `levels` single-member arrays, deeper than the
/// writer's constant indent slice.
fn nested(value: Value, levels: usize) -> Value {
    (0..levels).fold(value, |inner, _| Value::Array(vec![inner, Value::Int(levels as i64)]))
}

#[test]
fn documents_render_byte_identically_to_the_reference_writer() {
    let mut rng = StdRng::seed_from_u64(0x7772_6974_6572);
    for case in 0..2_000 {
        let mut doc = document(&mut rng, 5);
        if case % 50 == 0 {
            doc = nested(doc, rng.random_range(30..100usize));
        }
        assert_eq!(doc.to_pretty(), reference::pretty(&doc), "case {case}: {doc:?}");
        assert_eq!(doc.to_compact(), reference::compact(&doc), "case {case}: {doc:?}");
    }
}

/// A `giallar-cert/v2` certificate: one compact row per gate.
const CERTIFICATE: &str = include_str!("data/ghz_8_seed7_default.v2.cert.json");

/// The certificate with its first input row, `["h", [], [0]]`, replaced.
fn with_first_row(row: &str) -> String {
    let mangled = CERTIFICATE.replacen(r#"["h", [], [0]],"#, &format!("{row},"), 1);
    assert_ne!(mangled, CERTIFICATE, "the golden's first row moved");
    mangled
}

/// A refusal fits one line.
fn assert_one_line(error: &str, row: &str) {
    assert!(!error.chars().any(char::is_control) && error.len() <= 160, "{row}: {error:?}");
}

#[test]
fn mangled_rows_fail_to_parse_with_one_line_naming_the_byte() {
    let start = CERTIFICATE.find(r#"["h", [], [0]],"#).unwrap();
    for row in [
        r#"["h", [], [0]"#,
        r#"["h" [], [0]]"#,
        r#"["h", [], [0,]]"#,
        r#"["h", [], [0]]]"#,
        r#"["h, [], [0]]"#,
        r#"[h, [], [0]]"#,
        r#"["h", [], [-]]"#,
        r#"["h", [], [0 1]]"#,
        r#"["h", [], [0]}"#,
    ] {
        let error = json::parse(&with_first_row(row)).unwrap_err();
        assert_one_line(&error, row);
        if let Some((_, at)) = error.rsplit_once(" at byte ") {
            assert!(at.parse::<usize>().unwrap() >= start, "{row}: {error}");
        } else {
            assert!(error.starts_with("bad number"), "{row}: {error}");
        }
    }
}

#[test]
fn rows_that_parse_but_mean_nothing_fail_to_decode_with_one_line() {
    for (row, reason) in [
        (r#"[]"#, "expected 3 to 5 elements, got 0"),
        (r#"["h", [], [0], [], null, {}]"#, "expected 3 to 5 elements, got 6"),
        (r#"["h", [], [1e999]]"#, "qubits: expected a non-negative integer"),
        (r#"["h", [], [-1]]"#, "qubits: expected a non-negative integer"),
        (r#"["h", [], [99999999999999999999]]"#, ""),
        (r#"["h", [], [1024]]"#, "qubits: index 1024 is past the 1024-wire ceiling"),
        (r#"[7, [], [0]]"#, "kind: expected a string"),
        (r#"["H", [], [0]]"#, "unknown gate `H`"),
        (r#"["h", [0.0], [0]]"#, "gate h expects 0 parameters, got 1"),
        (r#"["rz", [1e999], [0]]"#, "non-finite param"),
        (r#"["rz", ["pi"], [0]]"#, "non-numeric param"),
        (r#"["h", [], [0], [5000]]"#, "clbits: index 5000 is past the 1024-wire ceiling"),
        (r#"["h", [], [0], [], {"type": "classical", "bit": 2}]"#, "condition: missing value"),
        (r#"["h", [], [0], [], {"type": "sometimes"}]"#, "condition: unknown type"),
        (r#"["cx", [], [0]]"#, "cx expects 2 qubits"),
        (r#"["cx", [], [1, 1]]"#, "duplicate qubit operand 1"),
    ] {
        let text = with_first_row(row);
        let error = json::parse(&text)
            .and_then(|value| EquivalenceCertificate::from_json(&value))
            .unwrap_err();
        assert_one_line(&error, row);
        if error.starts_with("bad number") {
            continue;
        }
        assert!(error.starts_with("certificate input: gate row 0: "), "{row}: {error}");
        assert!(error.contains(reason), "{row}: {error}");
    }
}
