//! The workspace's JSON codec: one value type, its emitter and its parser.
//!
//! Every JSON document the workspace reads or writes goes through here: the
//! telemetry schema (`squash::telemetry`), Chrome span files
//! ([`crate::span::SpanLog::to_chrome_json`]) and the bench reports.
//!
//! Integers are kept exact ([`Json::Int`], `i64`) rather than routed
//! through `f64`, so 64-bit cycle counters round-trip byte-for-byte;
//! [`int`] saturates unsigned counters at `i64::MAX` so every emitted
//! document parses again. The parser takes untrusted input (telemetry files
//! handed to `squashmon` and `squashc --retune`), so nesting is capped at
//! 128 levels rather than bounded by the thread's stack.

use std::fmt;

use crate::json_escape;

/// Deepest array/object nesting [`parse`] accepts. Documents the workspace
/// writes nest at most 4 deep; the cap keeps the recursive parser's stack
/// use bounded on hostile input.
const MAX_DEPTH: usize = 128;

/// One JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (emitted without a decimal point).
    Int(i64),
    /// A non-integer number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved on emission.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup (`None` for non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an `i64`, if it is an integer.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Json::Int(n) => Some(n),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_i64().and_then(|n| u64::try_from(n).ok())
    }

    /// The value as an `f64` (integers widen).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::Int(n) => Some(n as f64),
            Json::Num(n) => Some(n),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Whether the value is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(n) => write!(f, "{n}"),
            Json::Num(n) if n.is_finite() => {
                // Keep a syntactic marker so the parser reads it back as
                // Num, preserving the Int/Num distinction.
                if n.fract() == 0.0 && n.abs() < 1e15 {
                    write!(f, "{n:.1}")
                } else {
                    write!(f, "{n}")
                }
            }
            Json::Num(_) => f.write_str("null"), // NaN/inf have no JSON form
            Json::Str(s) => write!(f, "\"{}\"", json_escape(s)),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Json::Obj(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "\"{}\":{v}", json_escape(k))?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Parses one JSON document (trailing whitespace allowed, nothing else).
///
/// # Errors
///
/// Returns a message naming the byte offset of the first syntax error, or
/// of the first container nested more than 128 deep.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser { b: text.as_bytes(), i: 0 };
    let v = p.value(0)?;
    p.skip_ws();
    if p.i != p.b.len() {
        return Err(format!("trailing garbage at byte {}", p.i));
    }
    Ok(v)
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        self.b
            .get(self.i)
            .copied()
            .ok_or_else(|| "unexpected end of input".into())
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek()? == c {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.i))
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.i))
        }
    }

    /// One value inside `depth` open containers.
    fn value(&mut self, depth: usize) -> Result<Json, String> {
        match self.peek()? {
            b'n' => self.lit("null", Json::Null),
            b't' => self.lit("true", Json::Bool(true)),
            b'f' => self.lit("false", Json::Bool(false)),
            b'"' => self.string().map(Json::Str),
            b'[' | b'{' if depth == MAX_DEPTH => {
                Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", self.i))
            }
            b'[' => {
                self.i += 1;
                let mut items = Vec::new();
                if self.peek()? == b']' {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    match self.peek()? {
                        b',' => self.i += 1,
                        b']' => {
                            self.i += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("expected ',' or ']' at byte {}", self.i)),
                    }
                }
            }
            b'{' => {
                self.i += 1;
                let mut fields = Vec::new();
                if self.peek()? == b'}' {
                    self.i += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.peek()?;
                    let key = self.string()?;
                    self.expect(b':')?;
                    fields.push((key, self.value(depth + 1)?));
                    match self.peek()? {
                        b',' => self.i += 1,
                        b'}' => {
                            self.i += 1;
                            return Ok(Json::Obj(fields));
                        }
                        _ => return Err(format!("expected ',' or '}}' at byte {}", self.i)),
                    }
                }
            }
            b'-' | b'0'..=b'9' => self.number(),
            c => Err(format!("unexpected '{}' at byte {}", c as char, self.i)),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let c = *self.b.get(self.i).ok_or("unterminated string")?;
            self.i += 1;
            match c {
                b'"' => return Ok(s),
                b'\\' => {
                    let e = *self.b.get(self.i).ok_or("unterminated escape")?;
                    self.i += 1;
                    match e {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'n' => s.push('\n'),
                        b't' => s.push('\t'),
                        b'r' => s.push('\r'),
                        b'u' => {
                            let hex = self
                                .b
                                .get(self.i..self.i + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| "bad \\u escape".to_string())?;
                            self.i += 4;
                            s.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        _ => return Err(format!("bad escape at byte {}", self.i)),
                    }
                }
                c => {
                    // Re-assemble multi-byte UTF-8 sequences.
                    let start = self.i - 1;
                    let len = match c {
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        0xF0..=0xF7 => 4,
                        _ => 1,
                    };
                    self.i = start + len;
                    let chunk = self
                        .b
                        .get(start..self.i)
                        .and_then(|b| std::str::from_utf8(b).ok())
                        .ok_or("invalid UTF-8 in string")?;
                    s.push_str(chunk);
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        if self.b[self.i] == b'-' {
            self.i += 1;
        }
        let mut float = false;
        while let Some(&c) = self.b.get(self.i) {
            match c {
                b'0'..=b'9' => self.i += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.i += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.b[start..self.i])
            .expect("number scanner only accepts ASCII bytes");
        if !float {
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Json::Int(n));
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number at byte {start}"))
    }
}

/// Shorthand for building an object.
pub fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// An integer value from any unsigned counter, saturated at `i64::MAX`: a
/// counter summed past it (a fleet merge saturates at `u64::MAX`) still
/// emits a non-negative integer that [`Json::as_u64`] reads back.
pub fn int(n: u64) -> Json {
    Json::Int(i64::try_from(n).unwrap_or(i64::MAX))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trips_values() {
        let v = obj(vec![
            ("a", Json::Int(-3)),
            ("big", Json::Int(i64::MAX)),
            ("f", Json::Num(1.5)),
            ("whole", Json::Num(2.0)),
            ("s", Json::Str("he said \"hi\"\n\ttab".into())),
            ("arr", Json::Arr(vec![Json::Null, Json::Bool(true), Json::Int(0)])),
            ("empty", Json::Arr(vec![])),
            ("nested", obj(vec![("x", Json::Int(1))])),
        ]);
        let text = v.to_string();
        let back = parse(&text).expect("parse");
        assert_eq!(back, v, "document: {text}");
        // Int/Num distinction survives: whole-valued floats stay Num.
        assert_eq!(back.get("whole"), Some(&Json::Num(2.0)));
        assert_eq!(back.get("big").and_then(Json::as_i64), Some(i64::MAX));
    }

    #[test]
    fn json_parse_rejects_garbage() {
        for bad in ["", "{", "[1,", "{\"a\" 1}", "truu", "1 2", "\"unterminated"] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
        assert!(parse(" {\"k\": [1, 2.5, null]} ").is_ok());
    }

    #[test]
    fn nesting_past_the_cap_is_an_error_not_a_stack_overflow() {
        let err = parse(&"[".repeat(100_000)).unwrap_err();
        assert_eq!(err, format!("nesting deeper than {MAX_DEPTH} at byte {MAX_DEPTH}"));
        let err = parse(&"{\"k\":".repeat(100_000)).unwrap_err();
        assert!(err.starts_with("nesting deeper than"), "{err}");
        // Exactly at the cap still parses.
        let deepest = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&deepest).is_ok());
    }

    #[test]
    fn int_saturates_instead_of_wrapping() {
        assert_eq!(int(7), Json::Int(7));
        assert_eq!(int(i64::MAX as u64), Json::Int(i64::MAX));
        for n in [i64::MAX as u64 + 1, u64::MAX - 1, u64::MAX] {
            let text = int(n).to_string();
            assert_eq!(text, i64::MAX.to_string());
            assert_eq!(parse(&text).unwrap().as_u64(), Some(i64::MAX as u64));
        }
    }
}
