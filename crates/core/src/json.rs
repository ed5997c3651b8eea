//! A minimal JSON document model with a parser and pretty-printer.
//!
//! The workspace vendors a no-op `serde` shim (the build environment has no
//! network access), so the artifacts this repository emits — the incremental
//! verification cache, the CLI's `--format json` reports, the committed
//! `BENCH_*.json` files — are built on this module instead.  It implements
//! the full JSON grammar except for exotic number forms: numbers are kept as
//! either `i64` or `f64`, which covers every value the verifier produces.
//!
//! Object members preserve insertion order so that serialization is
//! deterministic and the committed artifacts are byte-stable.
//!
//! The parser is linear in document size: each byte is scanned a bounded
//! number of times (string contents are validated a run at a time, not once
//! per character), so megabyte certificates and cache files parse in
//! milliseconds.  Nesting is capped, so hostile input fails cleanly.

use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (JSON numbers without fraction or exponent).
    Int(i64),
    /// A floating-point number.
    Float(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; members keep insertion order for deterministic output.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Builds an object from key/value pairs.
    pub fn object(members: Vec<(&str, Value)>) -> Value {
        Value::Object(members.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Looks up a member of an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, when it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an `i64`, when it is an integer.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as an `f64` (integers widen losslessly for small values).
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Int(v) => Some(*v as f64),
            Value::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a bool, when it is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, when it is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Returns `true` for `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Serializes the value as pretty-printed JSON (2-space indent, stable
    /// member order) with a trailing newline, the format used by every
    /// committed artifact.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    /// Serializes the value as single-line JSON (no newlines, `", "` and
    /// `": "` separators elided to `,`/`:`), the framing used by the
    /// line-delimited `giallar-serve` wire protocol where one message
    /// must occupy exactly one line.
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Int(v) => out.push_str(&v.to_string()),
            Value::Float(v) => out.push_str(&format_float(*v)),
            Value::String(s) => write_escaped(out, s),
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
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
                    value.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Int(v) => out.push_str(&v.to_string()),
            Value::Float(v) => out.push_str(&format_float(*v)),
            Value::String(s) => write_escaped(out, s),
            Value::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.write_pretty(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Value::Object(members) => {
                if members.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_escaped(out, key);
                    out.push_str(": ");
                    value.write_pretty(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.to_pretty().trim_end())
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

/// Formats a float so that it parses back to the identical bit pattern
/// (Rust's shortest round-trip representation), ensuring a fraction or
/// exponent is present so the reader keeps it a float.
fn format_float(v: f64) -> String {
    if !v.is_finite() {
        // JSON has no Inf/NaN; the verifier never produces them, but don't
        // emit invalid documents if one sneaks in.
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

/// Parses a JSON document.
///
/// # Errors
///
/// Returns a human-readable description of the first syntax error, with its
/// byte offset.
pub fn parse(input: &str) -> Result<Value, String> {
    let mut parser = Parser { bytes: input.as_bytes(), pos: 0, depth: 0 };
    parser.skip_ws();
    let value = parser.parse_value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(format!("trailing characters at byte {}", parser.pos));
    }
    Ok(value)
}

/// Nesting ceiling for the recursive-descent parser: far deeper than any
/// document this workspace produces, shallow enough that a corrupted or
/// hostile cache file returns a parse error instead of overflowing the
/// stack (callers like `giallar verify --cache` recover from errors).
const MAX_PARSE_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn parse_value(&mut self) -> Result<Value, String> {
        if self.depth >= MAX_PARSE_DEPTH {
            return Err(format!("nesting deeper than {MAX_PARSE_DEPTH} at byte {}", self.pos));
        }
        self.depth += 1;
        let value = self.parse_value_inner();
        self.depth -= 1;
        value
    }

    fn parse_value_inner(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.parse_object(),
            Some(b'[') => self.parse_array(),
            Some(b'"') => Ok(Value::String(self.parse_string()?)),
            Some(b't') => self.parse_literal("true", Value::Bool(true)),
            Some(b'f') => self.parse_literal("false", Value::Bool(false)),
            Some(b'n') => self.parse_literal("null", Value::Null),
            Some(b'-') | Some(b'0'..=b'9') => self.parse_number(),
            Some(other) => {
                Err(format!("unexpected `{}` at byte {}", (other as char).escape_debug(), self.pos))
            }
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn parse_literal(&mut self, text: &str, value: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn parse_object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.parse_value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(members));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn parse_array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let code = self.hex4(self.pos + 1)?;
                            self.pos += 4;
                            out.push(self.surrogate_pair(code).unwrap_or_else(|| {
                                // Lone surrogates map to the replacement char.
                                char::from_u32(code).unwrap_or('\u{fffd}')
                            }));
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the whole run up to the next quote or backslash at
                    // once.  Both are ASCII, so the run ends on a char
                    // boundary and is validated in one pass.
                    let start = self.pos;
                    while !matches!(self.peek(), None | Some(b'"') | Some(b'\\')) {
                        self.pos += 1;
                    }
                    let run = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| "invalid utf-8")?;
                    out.push_str(run);
                }
            }
        }
    }

    /// Reads the four hex digits of a `\u` escape starting at byte `at`.
    fn hex4(&self, at: usize) -> Result<u32, String> {
        let hex = self.bytes.get(at..at + 4).ok_or("truncated \\u escape")?;
        hex.iter()
            .try_fold(0, |code, &b| Some(code * 16 + char::from(b).to_digit(16)?))
            .ok_or_else(|| format!("bad \\u escape at byte {}", at - 1))
    }

    /// With `high` the code just read from a `\u` escape whose last digit
    /// is at `self.pos`: when `high` is a high surrogate and a `\u` escape
    /// holding a low surrogate follows, consumes that escape and returns
    /// the scalar the pair encodes.
    fn surrogate_pair(&mut self, high: u32) -> Option<char> {
        if !(0xd800..0xdc00).contains(&high)
            || self.bytes.get(self.pos + 1..self.pos + 3) != Some(b"\\u")
        {
            return None;
        }
        let low = self.hex4(self.pos + 3).ok().filter(|low| (0xdc00..0xe000).contains(low))?;
        self.pos += 6;
        char::from_u32(0x10000 + ((high - 0xd800) << 10) + (low - 0xdc00))
    }

    fn parse_number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number");
        if is_float {
            text.parse::<f64>().map(Value::Float).map_err(|e| format!("bad number: {e}"))
        } else {
            text.parse::<i64>().map(Value::Int).map_err(|e| format!("bad number: {e}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_a_nested_document() {
        let doc = Value::object(vec![
            ("name", Value::String("CXCancellation".to_string())),
            ("subgoals", Value::Int(4)),
            ("time", Value::Float(0.25)),
            ("verified", Value::Bool(true)),
            ("failure", Value::Null),
            ("tags", Value::Array(vec![Value::String("a\"b\\c\n".to_string()), Value::Int(-3)])),
            ("empty_list", Value::Array(vec![])),
            ("empty_obj", Value::Object(vec![])),
        ]);
        let text = doc.to_pretty();
        assert_eq!(parse(&text).unwrap(), doc);
        // Serialization is deterministic.
        assert_eq!(parse(&text).unwrap().to_pretty(), text);
    }

    #[test]
    fn floats_round_trip_exactly() {
        for v in [0.1, 1.0, -2.5e-8, 123456.789, f64::MIN_POSITIVE] {
            let text = Value::Float(v).to_pretty();
            match parse(&text).unwrap() {
                Value::Float(back) => assert_eq!(back.to_bits(), v.to_bits(), "{text}"),
                other => panic!("expected float, got {other:?}"),
            }
        }
        // Whole-valued floats keep their floatness through a round trip.
        assert_eq!(parse("3.0").unwrap(), Value::Float(3.0));
        assert_eq!(parse("3").unwrap(), Value::Int(3));
    }

    #[test]
    fn compact_form_is_single_line_and_round_trips() {
        let doc = Value::object(vec![
            ("schema", Value::String("giallar-serve/v1".to_string())),
            ("note", Value::String("line\nbreak".to_string())),
            ("n", Value::Int(2)),
            ("t", Value::Float(0.5)),
            ("items", Value::Array(vec![Value::Bool(true), Value::Null])),
            ("empty", Value::Object(vec![])),
        ]);
        let line = doc.to_compact();
        assert!(!line.contains('\n'), "compact JSON must fit one wire line: {line:?}");
        assert_eq!(
            line,
            r#"{"schema":"giallar-serve/v1","note":"line\nbreak","n":2,"t":0.5,"items":[true,null],"empty":{}}"#
        );
        assert_eq!(parse(&line).unwrap(), doc);
    }

    #[test]
    fn accessors_work() {
        let doc = parse(r#"{"a": 1, "b": [true, null], "c": "x", "t": 0.5}"#).unwrap();
        assert_eq!(doc.get("a").and_then(Value::as_int), Some(1));
        assert_eq!(doc.get("c").and_then(Value::as_str), Some("x"));
        assert_eq!(doc.get("t").and_then(Value::as_float), Some(0.5));
        assert_eq!(doc.get("a").and_then(Value::as_float), Some(1.0));
        let arr = doc.get("b").and_then(Value::as_array).unwrap();
        assert_eq!(arr[0].as_bool(), Some(true));
        assert!(arr[1].is_null());
        assert!(doc.get("missing").is_none());
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,", "{\"a\" 1}", "tru", "1 2", "\"unterminated", "{\"a\":}"] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_crash() {
        let deep = "[".repeat(100_000) + &"]".repeat(100_000);
        assert!(parse(&deep).unwrap_err().contains("nesting"));
        // Nesting inside the ceiling still parses.
        let ok = "[".repeat(64) + "1" + &"]".repeat(64);
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn parses_escapes_and_unicode() {
        let parsed = parse(r#""a\"b\\c\/d\n\tAé""#).unwrap();
        assert_eq!(parsed.as_str(), Some("a\"b\\c/d\n\tAé"));
        let control = Value::String("\u{0001}".to_string()).to_pretty();
        assert_eq!(parse(&control).unwrap().as_str(), Some("\u{0001}"));
    }

    #[test]
    fn runs_of_every_width_round_trip_next_to_escapes() {
        // Every ordered pair of pieces, so each multi-byte width sits right
        // before and after every escape, control character and quote.
        let pieces = ["a", "é", "€", "😀", "\"", "\\", "\n", "\u{0001}", "\u{001f}", "/", ""];
        for a in pieces {
            for b in pieces {
                for c in pieces {
                    let text = format!("{a}{b}{c}{b}{a}");
                    let doc = Value::Array(vec![Value::String(text.clone()), Value::Int(1)]);
                    for encoded in [doc.to_pretty(), doc.to_compact()] {
                        assert_eq!(parse(&encoded).unwrap(), doc, "{text:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn surrogate_pairs_decode_to_one_scalar() {
        // What `json.dumps("😀𝄞")` writes with its default `ensure_ascii`.
        assert_eq!(parse(r#""\ud83d\ude00\ud834\udd1e""#).unwrap().as_str(), Some("😀𝄞"));
        assert_eq!(parse(r#""x\ud83d\ude00y""#).unwrap().as_str(), Some("x😀y"));
        // Lone surrogates stay the replacement character.
        assert_eq!(parse(r#""\ud83d""#).unwrap().as_str(), Some("\u{fffd}"));
        assert_eq!(parse(r#""\ude00\ud83d""#).unwrap().as_str(), Some("\u{fffd}\u{fffd}"));
        assert_eq!(parse(r#""\ud83dAA""#).unwrap().as_str(), Some("\u{fffd}AA"));
        assert_eq!(parse(r#""\ud83dA""#).unwrap().as_str(), Some("\u{fffd}A"));
        assert_eq!(parse(r#""\ud83d\n""#).unwrap().as_str(), Some("\u{fffd}\n"));
        // A high surrogate before a malformed escape reports that escape.
        assert!(parse(r#""\ud83d\uZZZZ""#).unwrap_err().contains("bad \\u escape at byte 8"));
    }

    #[test]
    fn unicode_escapes_take_exactly_four_hex_digits() {
        assert_eq!(parse(r#""\u0041\u00e9\u20AC""#).unwrap().as_str(), Some("Aé€"));
        for bad in [r#""\u+041""#, r#""\u-041""#, r#""\u 041""#, r#""\u004g""#, r#""\u00é""#] {
            let error = parse(bad).unwrap_err();
            assert_eq!(error, "bad \\u escape at byte 2", "{bad:?}");
        }
        assert_eq!(parse(r#""\u004"#).unwrap_err(), "truncated \\u escape");
    }
}
