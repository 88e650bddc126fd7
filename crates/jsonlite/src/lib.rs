//! # vpir-jsonlite — the workspace's shared hand-rolled JSON machinery
//!
//! The workspace is offline by construction (no serde), so every
//! subsystem that speaks JSON — the bench harness's job files and perf
//! reports, the simulator's diagnostic snapshots, and the `vpir serve`
//! request/response path — uses the same small, std-only toolkit:
//!
//! - [`JsonValue`] / [`parse_json`] — a recursive-descent parser for the
//!   subset of JSON the workspace's documents use (objects, arrays,
//!   strings, **unsigned integers only**, `true`/`false`/`null`).
//!   Refusing floats, exponents, and negatives is what makes round
//!   trips of `u64` simulator counters exact.
//! - [`json_escape`] / [`JsonObj`] — emission: string escaping and an
//!   insertion-ordered object builder.
//! - [`validate_json`] — a grammar checker over *full* JSON (floats and
//!   all) that never builds a tree; used by CLIs and CI to self-check
//!   emitted documents.
//!
//! Everything here was extracted from `crates/bench` (`state.rs`,
//! `perf.rs`), which re-exports it for compatibility.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;

// ---------------------------------------------------------------------
// JSON values
// ---------------------------------------------------------------------

/// A parsed JSON value restricted to what workspace documents contain.
///
/// Numbers are unsigned integers only — every simulator counter is a
/// `u64`, and refusing floats is what makes round trips exact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer (the only number form accepted).
    U64(u64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, in source order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Looks up a key in an object; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The contained integer, if this is a number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::U64(n) => Some(*n),
            _ => None,
        }
    }

    /// The contained boolean, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The contained string, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The contained elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Parses a JSON document into a [`JsonValue`].
///
/// Rejects fractions, exponents, and negative numbers: workspace
/// documents only ever hold `u64` counters, strings, booleans, and
/// containers, and anything else indicates corruption.
pub fn parse_json(text: &str) -> Result<JsonValue, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: u32,
}

const MAX_DEPTH: u32 = 128;

impl<'a> Parser<'a> {
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

    fn value(&mut self) -> Result<JsonValue, String> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err("nesting too deep".to_string());
        }
        let v = match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(JsonValue::Str),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'0'..=b'9') => self.number(),
            Some(b) => Err(format!(
                "unexpected byte `{}` at {} (negative and fractional \
                 numbers are not valid here)",
                b as char, self.pos
            )),
            None => Err("unexpected end of input".to_string()),
        }?;
        self.depth -= 1;
        Ok(v)
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(fields));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
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
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or("truncated \\u escape")?;
                            let code =
                                u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                            out.push(char::from_u32(code).ok_or("invalid \\u code point")?);
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => {
                    return Err(format!("raw control byte in string at {}", self.pos))
                }
                Some(_) => {
                    // Copy one UTF-8 scalar (input is a &str, so this is safe
                    // to do bytewise until the next ASCII delimiter).
                    let start = self.pos;
                    self.pos += 1;
                    while self.bytes.get(self.pos).is_some_and(|&b| b & 0xc0 == 0x80) {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| "invalid UTF-8 in string")?,
                    );
                }
                None => return Err("unterminated string".to_string()),
            }
        }
    }

    fn literal(&mut self, word: &str, v: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let mut n: u64 = 0;
        let start = self.pos;
        while let Some(b @ b'0'..=b'9') = self.peek() {
            n = n
                .checked_mul(10)
                .and_then(|n| n.checked_add(u64::from(b - b'0')))
                .ok_or_else(|| format!("integer overflow at byte {start}"))?;
            self.pos += 1;
        }
        if matches!(self.peek(), Some(b'.') | Some(b'e') | Some(b'E')) {
            return Err(format!(
                "non-integer number at byte {start}: this parser holds exact \
                 u64 counters only"
            ));
        }
        Ok(JsonValue::U64(n))
    }
}

// ---------------------------------------------------------------------
// JSON emission
// ---------------------------------------------------------------------

/// Escapes a string for embedding in a JSON document (no quotes added).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Builds a single-line JSON object; keys are emitted in call order.
///
/// The emitted form (`{"a": 1, "b": "x"}`) matches what the workspace's
/// hand-rolled emitters have always produced, so existing golden files
/// and schema checks keep passing.
#[derive(Debug)]
pub struct JsonObj {
    out: String,
}

impl Default for JsonObj {
    fn default() -> JsonObj {
        JsonObj::new()
    }
}

impl JsonObj {
    /// Starts an empty object.
    pub fn new() -> JsonObj {
        JsonObj {
            out: String::from("{"),
        }
    }

    fn key(&mut self, k: &str) {
        if self.out.len() > 1 {
            self.out.push_str(", ");
        }
        self.out.push('"');
        self.out.push_str(&json_escape(k));
        self.out.push_str("\": ");
    }

    /// Appends an unsigned-integer field.
    pub fn u(mut self, k: &str, v: u64) -> JsonObj {
        self.key(k);
        self.out.push_str(&v.to_string());
        self
    }

    /// Appends a boolean field.
    pub fn b(mut self, k: &str, v: bool) -> JsonObj {
        self.key(k);
        self.out.push_str(if v { "true" } else { "false" });
        self
    }

    /// Appends an escaped string field.
    pub fn s(mut self, k: &str, v: &str) -> JsonObj {
        self.key(k);
        self.out.push('"');
        self.out.push_str(&json_escape(v));
        self.out.push('"');
        self
    }

    /// Embeds pre-rendered JSON verbatim.
    pub fn raw(mut self, k: &str, v: &str) -> JsonObj {
        self.key(k);
        self.out.push_str(v);
        self
    }

    /// Closes the object and returns its text.
    pub fn finish(mut self) -> String {
        self.out.push('}');
        self.out
    }
}

// ---------------------------------------------------------------------
// Grammar validation
// ---------------------------------------------------------------------

/// Validates that `text` is well-formed JSON and, at the top level, an
/// object containing every key in `required_keys`.
///
/// A minimal recursive-descent checker — it accepts exactly the JSON
/// grammar (objects, arrays, strings with escapes, numbers including
/// floats and exponents, booleans, null) without building a document
/// tree. This is deliberately wider than [`parse_json`]: emitted
/// documents may carry floats (e.g. timings) that the exact-counter
/// parser refuses.
pub fn validate_json(text: &str, required_keys: &[&str]) -> Result<(), String> {
    let bytes = text.as_bytes();
    let mut p = Validator {
        bytes,
        pos: 0,
        top_keys: Vec::new(),
        depth: 0,
    };
    p.skip_ws();
    p.value(true)?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(format!("trailing bytes at offset {}", p.pos));
    }
    for key in required_keys {
        if !p.top_keys.iter().any(|k| k == key) {
            return Err(format!("missing required top-level key {key:?}"));
        }
    }
    Ok(())
}

struct Validator<'a> {
    bytes: &'a [u8],
    pos: usize,
    top_keys: Vec<String>,
    depth: u32,
}

impl Validator<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
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
            Err(format!("expected {:?} at offset {}", b as char, self.pos))
        }
    }

    fn value(&mut self, top: bool) -> Result<(), String> {
        if self.depth > MAX_DEPTH {
            return Err("nesting too deep".to_string());
        }
        self.depth += 1;
        let r = match self.peek() {
            Some(b'{') => self.object(top),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(|_| ()),
            Some(b't') => self.literal("true"),
            Some(b'f') => self.literal("false"),
            Some(b'n') => self.literal("null"),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            other => Err(format!("unexpected {other:?} at offset {}", self.pos)),
        };
        self.depth -= 1;
        r
    }

    fn object(&mut self, top: bool) -> Result<(), String> {
        self.expect(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            if top {
                self.top_keys.push(key);
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            self.value(false)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                other => {
                    return Err(format!(
                        "expected ',' or '}}', found {other:?} at offset {}",
                        self.pos
                    ))
                }
            }
        }
    }

    fn array(&mut self) -> Result<(), String> {
        self.expect(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            self.value(false)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(());
                }
                other => {
                    return Err(format!(
                        "expected ',' or ']', found {other:?} at offset {}",
                        self.pos
                    ))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(c @ (b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't')) => {
                            out.push(c as char);
                            self.pos += 1;
                        }
                        Some(b'u') => {
                            self.pos += 1;
                            for _ in 0..4 {
                                match self.peek() {
                                    Some(h) if h.is_ascii_hexdigit() => self.pos += 1,
                                    _ => {
                                        return Err(format!(
                                            "bad \\u escape at offset {}",
                                            self.pos
                                        ))
                                    }
                                }
                            }
                        }
                        other => {
                            return Err(format!("bad escape {other:?} at offset {}", self.pos))
                        }
                    }
                }
                Some(b) if b >= 0x20 => {
                    out.push(b as char);
                    self.pos += 1;
                }
                other => return Err(format!("bad string byte {other:?} at offset {}", self.pos)),
            }
        }
    }

    fn literal(&mut self, lit: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(format!("bad literal at offset {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<(), String> {
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut digits = 0;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
            digits += 1;
        }
        if digits == 0 {
            return Err(format!("expected digits at offset {}", self.pos));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            let mut frac = 0;
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
                frac += 1;
            }
            if frac == 0 {
                return Err(format!("expected fraction digits at offset {}", self.pos));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let mut exp = 0;
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
                exp += 1;
            }
            if exp == 0 {
                return Err(format!("expected exponent digits at offset {}", self.pos));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_rejects_what_workspace_documents_never_contain() {
        assert!(parse_json("1.5").is_err(), "fractions");
        assert!(parse_json("-3").is_err(), "negative numbers");
        assert!(parse_json("1e9").is_err(), "exponents");
        assert!(parse_json("{\"a\": 1,}").is_err(), "trailing comma");
        assert!(parse_json("{\"a\": 1} extra").is_err(), "trailing data");
        assert!(parse_json("\"unterminated").is_err(), "open string");
        assert!(parse_json("18446744073709551616").is_err(), "u64 overflow");
    }

    #[test]
    fn parser_handles_escapes_and_nesting() {
        let v = parse_json(r#"{"msg": "a\"b\\c\ndA", "arr": [1, [2, {"x": true}], null]}"#)
            .expect("parse");
        assert_eq!(
            v.get("msg").and_then(JsonValue::as_str),
            Some("a\"b\\c\ndA")
        );
        let arr = v.get("arr").and_then(JsonValue::as_arr).expect("arr");
        assert_eq!(arr.first().and_then(JsonValue::as_u64), Some(1));
        assert_eq!(arr.get(2), Some(&JsonValue::Null));
        assert_eq!(
            v.get("arr")
                .and_then(|a| a.as_arr())
                .and_then(|a| a.get(1))
                .and_then(|a| a.as_arr())
                .and_then(|a| a.get(1))
                .and_then(|o| o.get("x"))
                .and_then(JsonValue::as_bool),
            Some(true)
        );
    }

    #[test]
    fn obj_builder_emits_every_field_kind() {
        let text = JsonObj::new()
            .u("n", 7)
            .b("flag", true)
            .s("msg", "a\"b\n")
            .raw("nested", "[1, 2]")
            .finish();
        assert_eq!(
            text,
            "{\"n\": 7, \"flag\": true, \"msg\": \"a\\\"b\\n\", \"nested\": [1, 2]}"
        );
        let v = parse_json(&text).expect("round trip");
        assert_eq!(v.get("n").and_then(JsonValue::as_u64), Some(7));
        assert_eq!(v.get("msg").and_then(JsonValue::as_str), Some("a\"b\n"));
    }

    #[test]
    fn validator_accepts_json_grammar() {
        for ok in [
            "{}",
            "[]",
            "[1, -2.5, 1e9, 1.25E-3]",
            r#"{"a": [true, false, null], "b": {"c": "d\nA"}}"#,
            "  {  }  ",
        ] {
            validate_json(ok, &[]).unwrap_or_else(|e| panic!("{ok}: {e}"));
        }
    }

    #[test]
    fn validator_rejects_malformed_json() {
        for bad in [
            "",
            "{",
            "{]",
            "[1,]",
            r#"{"a" 1}"#,
            r#"{"a": 1} x"#,
            "01a",
            "1.",
            "1e",
            r#""unterminated"#,
        ] {
            assert!(validate_json(bad, &[]).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn validator_checks_required_keys() {
        let text = r#"{"schema": "x", "jobs": 2}"#;
        validate_json(text, &["schema", "jobs"]).expect("present");
        assert!(validate_json(text, &["schema", "phases"]).is_err());
    }
}
