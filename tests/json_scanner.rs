//! The JSON string scanner: strings mixing every UTF-8 width with escapes
//! and control characters round-trip through both writers, `\u` escapes
//! written by other tools (surrogate pairs included) decode, and parsing is
//! linear in document size.

use std::time::{Duration, Instant};

use giallar::core::json::{self, Value};
use proptest::prelude::*;

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
