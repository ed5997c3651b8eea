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
//! milliseconds.  Nesting is capped, so hostile input fails cleanly.  The
//! one [`Writer`] appends every number, indent and escape-free run straight
//! into the output buffer, allocating nothing per value; typed documents
//! write through it without building a [`Value`].

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
        Writer::pretty(&mut out).value(self);
        out.push('\n');
        out
    }

    /// Serializes the value as single-line JSON (no newlines, `", "` and
    /// `": "` separators elided to `,`/`:`), the framing used by the
    /// line-delimited `giallar-serve` wire protocol where one message
    /// must occupy exactly one line.
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        Writer::compact(&mut out).value(self);
        out
    }
}

/// How a [`Writer`] separates members and items.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Layout {
    /// One member or item per line, indented two spaces a level.
    Pretty,
    /// One line, `", "` and `": "` separators.
    Inline,
    /// One line, bare `,` and `:` separators.
    Compact,
}

/// Renders JSON straight into a `String`, with no [`Value`] in between:
/// typed documents (certificates) write their fields through it, and
/// [`Value::to_pretty`] and [`Value::to_compact`] are built on it.
///
/// The caller brackets containers with [`Writer::open`] and
/// [`Writer::close`] and announces each object member with
/// [`Writer::key`] and each array element with [`Writer::item`]; the
/// writer places the separators, newlines and indents.  An empty
/// container renders as `{}` or `[]` in every layout.
pub struct Writer<'a> {
    out: &'a mut String,
    layout: Layout,
    depth: usize,
    /// True while the innermost open container has no member yet.
    empty: bool,
}

impl<'a> Writer<'a> {
    /// A writer in the pretty layout of [`Value::to_pretty`].
    pub fn pretty(out: &'a mut String) -> Self {
        Writer { out, layout: Layout::Pretty, depth: 0, empty: false }
    }

    /// A writer in the single-line layout of [`Value::to_compact`].
    pub fn compact(out: &'a mut String) -> Self {
        Writer { out, layout: Layout::Compact, depth: 0, empty: false }
    }

    /// Opens an object (`'{'`) or array (`'['`).
    pub fn open(&mut self, bracket: char) {
        self.out.push(bracket);
        self.depth += 1;
        self.empty = true;
    }

    /// Closes the innermost container with `bracket` (`'}'` or `']'`).
    pub fn close(&mut self, bracket: char) {
        self.depth -= 1;
        if self.layout == Layout::Pretty && !self.empty {
            self.out.push('\n');
            push_indent(self.out, self.depth);
        }
        self.out.push(bracket);
        self.empty = false;
    }

    /// Starts the next array element.
    pub fn item(&mut self) {
        if !self.empty {
            self.out.push(',');
        }
        match self.layout {
            Layout::Pretty => {
                self.out.push('\n');
                push_indent(self.out, self.depth);
            }
            Layout::Inline if !self.empty => self.out.push(' '),
            _ => {}
        }
        self.empty = false;
    }

    /// Starts the next object member: its key and the colon.
    pub fn key(&mut self, key: &str) {
        self.item();
        write_escaped(self.out, key);
        self.out.push_str(if self.layout == Layout::Compact { ":" } else { ": " });
    }

    /// Writes one value with `write` on a single line, `", "`-separated
    /// when the writer is pretty (a compact writer stays compact).
    pub fn inline(&mut self, write: impl FnOnce(&mut Self)) {
        let layout = self.layout;
        if layout == Layout::Pretty {
            self.layout = Layout::Inline;
        }
        write(self);
        self.layout = layout;
    }

    /// Writes a string.
    pub fn string(&mut self, s: &str) {
        write_escaped(self.out, s);
    }

    /// Writes an integer.
    pub fn int(&mut self, v: i64) {
        write_int(self.out, v);
    }

    /// Writes a float in its shortest round-trip form.
    pub fn float(&mut self, v: f64) {
        write_float(self.out, v);
    }

    /// Writes `true` or `false`.
    pub fn bool(&mut self, b: bool) {
        self.out.push_str(if b { "true" } else { "false" });
    }

    /// Writes a [`Value`].
    pub fn value(&mut self, value: &Value) {
        match value {
            Value::Null => self.out.push_str("null"),
            Value::Bool(b) => self.bool(*b),
            Value::Int(v) => self.int(*v),
            Value::Float(v) => self.float(*v),
            Value::String(s) => self.string(s),
            Value::Array(items) => {
                self.open('[');
                for item in items {
                    self.item();
                    self.value(item);
                }
                self.close(']');
            }
            Value::Object(members) => {
                self.open('{');
                for (key, value) in members {
                    self.key(key);
                    self.value(value);
                }
                self.close('}');
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.to_pretty().trim_end())
    }
}

/// Two spaces per level, pushed a slice at a time.
fn push_indent(out: &mut String, indent: usize) {
    const SPACES: &str = "                                                                ";
    let mut width = 2 * indent;
    while width > 0 {
        let chunk = width.min(SPACES.len());
        out.push_str(&SPACES[..chunk]);
        width -= chunk;
    }
}

/// Writes an integer's decimal digits straight into `out`.
fn write_int(out: &mut String, v: i64) {
    use std::fmt::Write;
    write!(out, "{v}").expect("writing to a String cannot fail");
}

/// Writes a float so that it parses back to the identical bit pattern
/// (Rust's shortest round-trip representation), ensuring a fraction or
/// exponent is present so the reader keeps it a float.
fn write_float(out: &mut String, v: f64) {
    use std::fmt::Write;
    if !v.is_finite() {
        // JSON has no Inf/NaN; the verifier never produces them, but don't
        // emit invalid documents if one sneaks in.
        out.push_str("null");
        return;
    }
    let start = out.len();
    write!(out, "{v}").expect("writing to a String cannot fail");
    if !out[start..].bytes().any(|b| matches!(b, b'.' | b'e' | b'E')) {
        out.push_str(".0");
    }
}

/// Writes `s` as a JSON string, copying each run between escapes in one
/// `push_str`.  Every escaped character is ASCII, so a byte scan never
/// splits a multi-byte character.
fn write_escaped(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        if escape.is_empty() {
            out.push_str("\\u00");
            out.push(char::from(HEX[usize::from(b >> 4)]));
            out.push(char::from(HEX[usize::from(b & 0xf)]));
        } else {
            out.push_str(escape);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
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
            // Copy the whole run up to the next quote or backslash at once.
            // Both are ASCII, so the run ends on a char boundary and is
            // validated in one pass.
            let rest = &self.bytes[self.pos..];
            let end = rest.iter().position(|&b| b == b'"' || b == b'\\').unwrap_or(rest.len());
            let run = std::str::from_utf8(&rest[..end]).map_err(|_| "invalid utf-8")?;
            out.push_str(run);
            self.pos += end;
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                _ => {
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
        // At most 18 digits cannot overflow an i64, and the scan above
        // admitted nothing but digits after the sign.
        let digits = text.strip_prefix('-').unwrap_or(text);
        if !is_float && (1..=18).contains(&digits.len()) {
            let magnitude =
                digits.bytes().fold(0i64, |value, digit| value * 10 + i64::from(digit - b'0'));
            return Ok(Value::Int(if digits.len() < text.len() { -magnitude } else { magnitude }));
        }
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
