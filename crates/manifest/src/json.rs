//! A self-contained JSON value model, parser, and writer.
//!
//! The crate registry is unreachable from this environment, so the
//! protocol cannot lean on serde: this module is the whole JSON stack
//! the scenario runner needs. The parser accepts standard JSON (RFC
//! 8259) and reports errors with line/column positions; the writer
//! produces deterministic two-space-indented output with object keys in
//! insertion order, so artifacts written through [`JsonValue`] are
//! bit-identical across runs.

use std::fmt::Write as _;

/// A parsed JSON document. Objects preserve insertion order (no hashing),
/// which keeps round-trips and emitted artifacts deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Number(f64),
    /// A string (escapes decoded).
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, as `(key, value)` pairs in insertion order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// The value under `key`, when `self` is an object that has it.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, when `self` is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, when `self` is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The numeric payload, when `self` is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The element list, when `self` is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes with two-space indentation and a trailing newline —
    /// the canonical artifact form (`result.json`).
    #[must_use]
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            JsonValue::Number(n) => write_number(out, *n),
            JsonValue::String(s) => write_string(out, s),
            JsonValue::Array(items) => {
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
            JsonValue::Object(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_string(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_number(out: &mut String, n: f64) {
    if n.is_finite() {
        if n == n.trunc() && n.abs() < 1e15 {
            let _ = write!(out, "{n:.0}");
        } else {
            let _ = write!(out, "{n}");
        }
    } else {
        // JSON has no NaN/Infinity; write null rather than an invalid
        // token (deterministic inputs never produce these).
        out.push_str("null");
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
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
    out.push('"');
}

/// A JSON syntax error with its position (1-based line and column).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// 1-based line of the offending byte.
    pub line: usize,
    /// 1-based column of the offending byte.
    pub column: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "json: {} at line {}, column {}",
            self.message, self.line, self.column
        )
    }
}

impl std::error::Error for JsonError {}

/// The deepest array/object nesting [`parse`] accepts. Every artifact
/// this workspace writes nests at most 4 deep; the bound exists so that
/// adversarial input gets a [`JsonError`] instead of overflowing the
/// recursive reader's stack.
const MAX_DEPTH: usize = 128;

/// Parses a complete JSON document (trailing whitespace allowed, trailing
/// garbage rejected).
///
/// # Errors
///
/// Returns a [`JsonError`] with line/column on any syntax violation, and
/// on arrays or objects nested more than 128 deep.
pub fn parse(text: &str) -> Result<JsonValue, JsonError> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.parse_value()?;
    p.skip_ws();
    if p.pos < p.bytes.len() {
        return Err(p.error("trailing characters after the document"));
    }
    Ok(value)
}

struct Parser<'a> {
    /// The document, for copying runs of string characters whole.
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn error(&self, message: impl Into<String>) -> JsonError {
        let mut line = 1;
        let mut column = 1;
        for &b in &self.bytes[..self.pos.min(self.bytes.len())] {
            if b == b'\n' {
                line += 1;
                column = 1;
            } else {
                column += 1;
            }
        }
        JsonError {
            line,
            column,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected '{}'", b as char)))
        }
    }

    fn parse_value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::parse_object),
            Some(b'[') => self.nested(Self::parse_array),
            Some(b'"') => Ok(JsonValue::String(self.parse_string()?)),
            Some(b't') => self.parse_keyword("true", JsonValue::Bool(true)),
            Some(b'f') => self.parse_keyword("false", JsonValue::Bool(false)),
            Some(b'n') => self.parse_keyword("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            Some(c) => Err(self.error(format!("unexpected character '{}'", c as char))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    /// Parses one array or object a level deeper, refusing to pass
    /// [`MAX_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<JsonValue, JsonError>,
    ) -> Result<JsonValue, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.error(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn parse_keyword(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(format!("expected '{word}'")))
        }
    }

    fn parse_number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("ascii digits are valid utf-8");
        text.parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|_| self.error(format!("invalid number '{text}'")))
    }

    fn parse_string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let code = self.parse_hex4()?;
                            // Surrogate pairs: decode the low half when
                            // present; lone surrogates become U+FFFD.
                            let c = if (0xD800..0xDC00).contains(&code) {
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let low = self.parse_hex4()?;
                                    let combined = 0x10000
                                        + ((code - 0xD800) << 10)
                                        + (low.wrapping_sub(0xDC00) & 0x3FF);
                                    char::from_u32(combined).unwrap_or('\u{FFFD}')
                                } else {
                                    '\u{FFFD}'
                                }
                            } else {
                                char::from_u32(code).unwrap_or('\u{FFFD}')
                            };
                            out.push(c);
                            continue;
                        }
                        _ => return Err(self.error("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next quote or backslash at
                    // once. Both are ASCII, so the run ends on a char
                    // boundary of the document.
                    let start = self.pos;
                    while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                        self.pos += 1;
                    }
                    out.push_str(&self.text[start..self.pos]);
                }
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.error("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.error("invalid \\u escape"))?;
        let code = u32::from_str_radix(hex, 16).map_err(|_| self.error("invalid \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }

    fn parse_array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.parse_value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(pairs));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_documents() {
        let text = r#"{"a": [1, 2.5, -3], "b": {"c": "x\ny", "d": null, "e": true}}"#;
        let v = parse(text).expect("parses");
        let again = parse(&v.pretty()).expect("pretty output re-parses");
        assert_eq!(v, again);
    }

    #[test]
    fn reports_position_of_syntax_errors() {
        let err = parse("{\n  \"a\": 1,\n  \"b\" 2\n}").expect_err("missing colon");
        assert_eq!(err.line, 3);
        assert!(err.message.contains("':'"), "{err}");
    }

    #[test]
    fn rejects_arrays_nested_past_the_depth_bound() {
        let at_bound = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&at_bound).is_ok());
        let deep = 200_000;
        let text = format!("{}{}", "[".repeat(deep), "]".repeat(deep));
        let err = parse(&text).expect_err("too deep");
        assert!(err.message.contains("nesting"), "{err}");
        assert_eq!(err.column, MAX_DEPTH + 1, "{err}");
    }

    #[test]
    fn rejects_objects_nested_past_the_depth_bound() {
        let nest = |n: usize| format!("{}1{}", r#"{"a":"#.repeat(n), "}".repeat(n));
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        let err = parse(&nest(MAX_DEPTH + 1)).expect_err("too deep");
        assert!(err.message.contains("nesting"), "{err}");
    }

    #[test]
    fn rejects_trailing_garbage() {
        let err = parse("{} extra").expect_err("trailing tokens");
        assert!(err.message.contains("trailing"), "{err}");
    }

    #[test]
    fn accessors_navigate_objects() {
        let v = parse(r#"{"schema": "s/v1", "cases": [{"n": 3}]}"#).expect("parses");
        assert_eq!(v.get("schema").and_then(JsonValue::as_str), Some("s/v1"));
        let cases = v.get("cases").and_then(JsonValue::as_array).expect("array");
        assert_eq!(cases[0].get("n").and_then(JsonValue::as_f64), Some(3.0));
    }

    #[test]
    fn strings_decode_every_utf8_width_next_to_escapes() {
        let text = r#"["a\né\t€\\😀\"", "\uD83D\uDE00é😀\uD83D\uDE00", "x😀"]"#;
        let v = parse(text).expect("parses");
        let strings: Vec<&str> = v
            .as_array()
            .expect("array")
            .iter()
            .map(|s| s.as_str().expect("string"))
            .collect();
        assert_eq!(strings, ["a\né\t€\\😀\"", "😀é😀😀", "x😀"]);
        let err = parse("\"x😀").expect_err("no closing quote");
        assert!(err.message.contains("unterminated"), "{err}");
    }

    #[test]
    fn escapes_control_characters_when_writing() {
        let v = JsonValue::String("a\"b\\c\u{1}\n".to_string());
        let text = v.pretty();
        assert_eq!(text, "\"a\\\"b\\\\c\\u0001\\n\"\n");
        assert_eq!(parse(text.trim()).expect("re-parses"), v);
    }

    #[test]
    fn integers_render_without_fraction() {
        let v = JsonValue::Array(vec![
            JsonValue::Number(3.0),
            JsonValue::Number(0.25),
            JsonValue::Number(-7.0),
        ]);
        let text = v.pretty();
        assert!(text.contains("3,"), "{text}");
        assert!(text.contains("0.25"), "{text}");
        assert!(text.contains("-7"), "{text}");
    }
}
