//! A minimal JSON value model, parser and string escaper.
//!
//! The workspace is air-gapped (no `serde_json`), and three layers need
//! JSON in both directions: the observability journal *writes* JSONL and
//! `gmr-trace` *reads* it back for validation and Chrome-trace conversion;
//! the `gmr-model/v1` artifact format round-trips revised models through
//! disk; and the serving stack parses request bodies and emits responses.
//! This crate implements the subset of JSON those paths need — no
//! comments, no trailing commas, `f64` numbers — with precise error
//! positions so strict validators can point at the corrupt byte. It began
//! life as a private module of `gmr-obsv` (which still re-exports it as
//! `gmr_obsv::json`); it was promoted to its own bottom-layer crate so the
//! serving and artifact code share one parser instead of growing a third
//! hand-rolled one.
//!
//! Numbers render through [`push_f64`] with Rust's shortest-round-trip
//! `f64` formatting, so a value survives serialize → parse bit-identically
//! — the property the serving stack's "responses match in-process
//! evaluation exactly" contract rests on.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value. Objects preserve no duplicate keys (last wins) and
/// iterate in key order — deterministic output for tests and diffs.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (always held as `f64`).
    Num(f64),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object.
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// The value under `key` when this is an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// This value as a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// This value as a non-negative integer. Numbers are `f64`s, so a
    /// large one may name a different integer than its text did; a field
    /// that can hold any `u64` uses [`push_u64`] and [`read_u64`].
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            // `u64::MAX as f64` is 2^64, itself past the range.
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n < u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// This value as a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// This value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// This value as an array slice.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(a) => Some(a),
            _ => None,
        }
    }
}

/// A parse failure with its byte offset.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// Byte offset of the offending input.
    pub at: usize,
    /// What went wrong.
    pub msg: &'static str,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.msg, self.at)
    }
}

impl std::error::Error for ParseError {}

/// Deepest array/object nesting [`parse`] accepts. Parsing recurses once
/// per level, so an unbounded depth would let a request body of `[`s
/// overflow the parsing thread's stack; the deepest document this
/// workspace writes nests 6 levels.
pub const MAX_DEPTH: usize = 64;

/// Parse one complete JSON value; trailing non-whitespace is an error
/// (a truncated or concatenated JSONL line must not half-parse), and so is
/// nesting deeper than [`MAX_DEPTH`].
pub fn parse(src: &str) -> Result<Value, ParseError> {
    let bytes = src.as_bytes();
    let mut p = Parser {
        src,
        bytes,
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(p.err("trailing data after value"));
    }
    Ok(v)
}

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Containers currently open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &'static str) -> ParseError {
        ParseError { at: self.pos, msg }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8, msg: &'static str) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(msg))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Parse a container one nesting level deeper, refusing past
    /// [`MAX_DEPTH`].
    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<Value, ParseError>,
    ) -> Result<Value, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.depth += 1;
        let v = container(self);
        self.depth -= 1;
        v
    }

    fn literal(&mut self, word: &'static str, v: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err("malformed literal"))
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| self.err("invalid number"))
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"', "expected string")?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not produced by our writer;
                            // map lone surrogates to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    // Copy the run up to the next quote, backslash or control
                    // byte in one go. All three are ASCII, so the run ends on
                    // a char boundary of the (already valid UTF-8) source.
                    let start = self.pos;
                    while matches!(self.peek(), Some(c) if c >= 0x20 && c != b'"' && c != b'\\') {
                        self.pos += 1;
                    }
                    let run = self
                        .src
                        .get(start..self.pos)
                        .ok_or_else(|| self.err("invalid UTF-8"))?;
                    out.push_str(run);
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[', "expected array")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{', "expected object")?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':', "expected ':'")?;
            self.skip_ws();
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

/// Append a JSON string literal (with escaping) to `out`.
pub fn push_escaped(out: &mut String, s: &str) {
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

/// Append a JSON rendering of a float: finite values as-is, non-finite as
/// `null` (strict JSON has no NaN/Infinity tokens).
pub fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        out.push_str(&format!("{v}"));
    } else {
        out.push_str("null");
    }
}

/// Integers below this bound are the only ones a JSON number carries
/// exactly: every one of them is an `f64` that no other integer's text
/// rounds to (the text `9007199254740993`, 2^53 + 1, parses to 2^53).
pub const EXACT_INT_BOUND: u64 = 1 << 53;

/// Append a `u64` so that [`read_u64`] reads back the same value: a JSON
/// number below [`EXACT_INT_BOUND`], a decimal string from there up.
pub fn push_u64(out: &mut String, v: u64) {
    if v < EXACT_INT_BOUND {
        out.push_str(&v.to_string());
    } else {
        push_escaped(out, &v.to_string());
    }
}

/// Read a `u64` written by [`push_u64`]: a number below
/// [`EXACT_INT_BOUND`] or a decimal string. A number from the bound up is
/// `None`, because the text may have named another integer that rounded
/// to it.
pub fn read_u64(v: &Value) -> Option<u64> {
    match v {
        Value::Str(s) => s.parse().ok(),
        _ => v.as_u64().filter(|&n| n < EXACT_INT_BOUND),
    }
}

/// Serialize a [`Value`] back to JSON text. Objects render in key order
/// (their storage order), so output is deterministic; non-finite numbers
/// become `null`, mirroring [`push_f64`].
pub fn render(v: &Value) -> String {
    let mut out = String::new();
    push_value(&mut out, v);
    out
}

/// Append a JSON rendering of `v` to `out`.
pub fn push_value(out: &mut String, v: &Value) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Num(x) => push_f64(out, *x),
        Value::Str(s) => push_escaped(out, s),
        Value::Arr(xs) => {
            out.push('[');
            for (i, x) in xs.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                push_value(out, x);
            }
            out.push(']');
        }
        Value::Obj(m) => {
            out.push('{');
            for (i, (k, x)) in m.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                push_escaped(out, k);
                out.push_str(": ");
                push_value(out, x);
            }
            out.push('}');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse("true").unwrap(), Value::Bool(true));
        assert_eq!(parse(" -3.25e1 ").unwrap(), Value::Num(-32.5));
        assert_eq!(parse("\"a\\nb\"").unwrap(), Value::Str("a\nb".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a": [1, {"b": "x"}], "c": false}"#).unwrap();
        assert_eq!(v.get("c"), Some(&Value::Bool(false)));
        let arr = v.get("a").and_then(Value::as_arr).unwrap();
        assert_eq!(arr[0].as_f64(), Some(1.0));
        assert_eq!(arr[1].get("b").and_then(Value::as_str), Some("x"));
    }

    #[test]
    fn rejects_truncation_and_trailing_garbage() {
        assert!(parse(r#"{"a": 1"#).is_err());
        assert!(parse(r#"{"a": 1} extra"#).is_err());
        assert!(parse(r#"{"a": }"#).is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn nesting_past_max_depth_is_an_error_not_a_stack_overflow() {
        // Hostile bodies, parsed on a thread with the default stack the
        // way a server worker parses them: an error, never an abort.
        let results = std::thread::spawn(|| {
            ["[", r#"{"a":"#, r#"[{"a":"#].map(|open| parse(&open.repeat(100_000)).map(drop))
        })
        .join()
        .expect("parsing deep input must not kill the thread");
        for r in results {
            assert_eq!(r.unwrap_err().msg, "nesting too deep");
        }
        let nest = |open: &str, close: &str, depth: usize| {
            format!("{}0{}", open.repeat(depth), close.repeat(depth))
        };
        assert!(parse(&nest("[", "]", MAX_DEPTH)).is_ok());
        assert!(parse(&nest(r#"{"a":"#, "}", MAX_DEPTH)).is_ok());
        let err = parse(&nest("[", "]", MAX_DEPTH + 1)).unwrap_err();
        assert_eq!((err.at, err.msg), (MAX_DEPTH, "nesting too deep"));
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // 4 MiB of mixed ASCII and multi-byte text with escapes sprinkled
        // in. Linear parsing takes well under a second even in a debug
        // build; re-validating the rest of the buffer per char would take
        // hours.
        let chunk = r#"plain ascii é水🌊 \\ \n \u00e9 "#;
        let decoded = "plain ascii é水🌊 \\ \n é ";
        let reps = (4 << 20) / chunk.len();
        let body = format!("\"{}\"", chunk.repeat(reps));
        let (tx, rx) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || {
            let v = parse(&body);
            let _ = tx.send(());
            v
        });
        rx.recv_timeout(std::time::Duration::from_secs(20))
            .expect("a 4 MiB string must parse within 20 s");
        let v = worker.join().unwrap().unwrap();
        assert_eq!(v, Value::Str(decoded.repeat(reps)));
    }

    #[test]
    fn escape_round_trip() {
        let original = "line1\nline2\t\"quoted\" \\slash\u{1}";
        let mut enc = String::new();
        push_escaped(&mut enc, original);
        assert_eq!(parse(&enc).unwrap(), Value::Str(original.into()));
    }

    #[test]
    fn non_finite_floats_serialize_as_null() {
        let mut out = String::new();
        push_f64(&mut out, f64::NAN);
        out.push(',');
        push_f64(&mut out, 1.5);
        assert_eq!(out, "null,1.5");
    }

    #[test]
    fn as_u64_bounds() {
        assert_eq!(parse("7").unwrap().as_u64(), Some(7));
        assert_eq!(parse("-1").unwrap().as_u64(), None);
        assert_eq!(parse("1.5").unwrap().as_u64(), None);
        // 2^64 is not a u64 (it used to saturate to u64::MAX).
        assert_eq!(parse("18446744073709551616").unwrap().as_u64(), None);
    }

    #[test]
    fn u64_fields_round_trip_exactly_or_refuse() {
        for v in [
            0,
            7,
            EXACT_INT_BOUND - 1,
            EXACT_INT_BOUND,
            EXACT_INT_BOUND + 1,
            u64::MAX,
        ] {
            let mut o = String::new();
            push_u64(&mut o, v);
            assert_eq!(read_u64(&parse(&o).unwrap()), Some(v), "{o}");
        }
        let mut o = String::new();
        push_u64(&mut o, EXACT_INT_BOUND);
        assert_eq!(o, "\"9007199254740992\"");
        // Bare numbers from 2^53 up may have been rounded: refused.
        for text in [
            "9007199254740992",
            "9007199254740993",
            "18446744073709551616",
        ] {
            assert_eq!(read_u64(&parse(text).unwrap()), None, "{text}");
        }
        for text in [
            "\"-1\"",
            "\"18446744073709551616\"",
            "\"1e3\"",
            "1.5",
            "true",
        ] {
            assert_eq!(read_u64(&parse(text).unwrap()), None, "{text}");
        }
    }

    #[test]
    fn render_round_trips() {
        let src = r#"{"a": [1, {"b": "x\ny"}], "c": false, "d": null}"#;
        let v = parse(src).unwrap();
        let text = render(&v);
        assert_eq!(parse(&text).unwrap(), v, "render must parse back equal");
    }
}
