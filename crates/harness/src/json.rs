//! Minimal JSON: parse and render.
//!
//! The workspace is fully vendored and has no serde, so the experiment
//! engine hand-rolls the small JSON subset it needs: objects preserve
//! insertion order, numbers are `f64` rendered with Rust's shortest
//! round-trip formatting (so parse → render is byte-identical, which is
//! what makes "resume is a no-op" checkable with `cmp`), and non-finite
//! numbers serialize as `null`.
//!
//! A document that does not parse is a [`ParseError`] naming the byte
//! where parsing stopped, never a panic: arrays and objects nest at most
//! [`MAX_DEPTH`] deep, so no input can exhaust the parser's stack.

use std::fmt::Write as _;

/// How deep arrays and objects may nest. `results.json` nests fewer than
/// 10 levels and the Chrome trace fewer than 5; each level is one frame
/// of the recursive descent.
pub const MAX_DEPTH: usize = 128;

/// Why [`Json::parse`] refused its input, and at which byte.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub kind: ParseErrorKind,
    /// Byte offset into the input where parsing stopped.
    pub offset: usize,
}

/// What [`ParseError`] found wrong.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParseErrorKind {
    /// The input ended inside a value.
    UnexpectedEnd,
    /// Another byte than the one the grammar needs here (named).
    Expected(&'static str),
    BadLiteral,
    BadEscape,
    BadNumber,
    /// A complete document followed by more than whitespace.
    TrailingGarbage,
    /// An array or object opened [`MAX_DEPTH`] levels deep.
    TooDeep,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.kind {
            ParseErrorKind::UnexpectedEnd => f.write_str("unexpected end of input")?,
            ParseErrorKind::Expected(what) => write!(f, "expected {what}")?,
            ParseErrorKind::BadLiteral => f.write_str("bad literal")?,
            ParseErrorKind::BadEscape => f.write_str("bad escape")?,
            ParseErrorKind::BadNumber => f.write_str("bad number")?,
            ParseErrorKind::TrailingGarbage => f.write_str("trailing garbage")?,
            ParseErrorKind::TooDeep => write!(f, "nested deeper than {MAX_DEPTH} levels")?,
        }
        write!(f, " at byte {}", self.offset)
    }
}

fn err<T>(kind: ParseErrorKind, offset: usize) -> Result<T, ParseError> {
    Err(ParseError { kind, offset })
}

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Insertion-ordered object (duplicate keys are not merged).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object member lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// A number that may be missing (`null` encodes NaN/±inf).
    pub fn as_f64_or_nan(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            Json::Null => Some(f64::NAN),
            _ => None,
        }
    }

    /// Compact single-line rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty rendering with 2-space indentation and a trailing newline.
    pub fn render_pretty(&self) -> String {
        let mut out = self.render_pretty_at(0);
        out.push('\n');
        out
    }

    /// [`render_pretty`](Self::render_pretty)'s bytes for this value where
    /// it sits `depth` levels inside a document: what follows its key, up
    /// to and excluding the `,` or newline after it.
    pub fn render_pretty_at(&self, depth: usize) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), depth);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let (nl, pad, pad_in) = match indent {
            Some(w) => ("\n", " ".repeat(w * depth), " ".repeat(w * (depth + 1))),
            None => ("", String::new(), String::new()),
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.is_finite() {
                    // Shortest round-trip formatting: re-parsing and
                    // re-rendering reproduces the same bytes.
                    let _ = write!(out, "{n}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(nl);
                    out.push_str(&pad_in);
                    item.write(out, indent, depth + 1);
                }
                out.push_str(nl);
                out.push_str(&pad);
                out.push(']');
            }
            Json::Obj(members) => {
                if members.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(nl);
                    out.push_str(&pad_in);
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                out.push_str(nl);
                out.push_str(&pad);
                out.push('}');
            }
        }
    }

    /// Parse a JSON document (must consume the whole input).
    pub fn parse(input: &str) -> Result<Json, ParseError> {
        let bytes = input.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return err(ParseErrorKind::TrailingGarbage, pos);
        }
        Ok(value)
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
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Consume byte `b` (named `what` in the error).
fn expect(bytes: &[u8], pos: &mut usize, b: u8, what: &'static str) -> Result<(), ParseError> {
    match bytes.get(*pos) {
        Some(&c) if c == b => {
            *pos += 1;
            Ok(())
        }
        Some(_) => err(ParseErrorKind::Expected(what), *pos),
        None => err(ParseErrorKind::UnexpectedEnd, *pos),
    }
}

/// The value at `*pos`, which sits inside `depth` arrays and objects.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, ParseError> {
    skip_ws(bytes, pos);
    if matches!(bytes.get(*pos), Some(b'[' | b'{')) && depth == MAX_DEPTH {
        return err(ParseErrorKind::TooDeep, *pos);
    }
    match bytes.get(*pos) {
        None => err(ParseErrorKind::UnexpectedEnd, *pos),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    Some(_) => return err(ParseErrorKind::Expected("',' or ']'"), *pos),
                    None => return err(ParseErrorKind::UnexpectedEnd, *pos),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut members = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':', "':'")?;
                let value = parse_value(bytes, pos, depth + 1)?;
                members.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(members));
                    }
                    Some(_) => return err(ParseErrorKind::Expected("',' or '}'"), *pos),
                    None => return err(ParseErrorKind::UnexpectedEnd, *pos),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, ParseError> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        err(ParseErrorKind::BadLiteral, *pos)
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, ParseError> {
    expect(bytes, pos, b'"', "'\"'")?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return err(ParseErrorKind::UnexpectedEnd, *pos),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let code = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|hex| std::str::from_utf8(hex).ok())
                            .and_then(|hex| u32::from_str_radix(hex, 16).ok());
                        let Some(code) = code else {
                            return err(ParseErrorKind::BadEscape, *pos);
                        };
                        // Surrogate pairs are not produced by our writer;
                        // map lone surrogates to the replacement char.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return err(ParseErrorKind::BadEscape, *pos),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (input is a &str, so slicing on
                // char boundaries is safe via the next boundary search).
                let start = *pos;
                *pos += 1;
                while *pos < bytes.len() && (bytes[*pos] & 0xC0) == 0x80 {
                    *pos += 1;
                }
                out.push_str(std::str::from_utf8(&bytes[start..*pos]).unwrap_or("\u{fffd}"));
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, ParseError> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    // ASCII by the loop above.
    let text = std::str::from_utf8(&bytes[start..*pos]).unwrap_or_default();
    match text.parse::<f64>() {
        Ok(n) => Ok(Json::Num(n)),
        Err(_) => err(ParseErrorKind::BadNumber, start),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrip_is_byte_identical() {
        let doc = Json::Obj(vec![
            ("a".into(), Json::Num(1.5)),
            ("b".into(), Json::Arr(vec![Json::Null, Json::Bool(true)])),
            ("c".into(), Json::Str("x\"y\n—".into())),
            ("d".into(), Json::Num(0.1 + 0.2)), // non-trivial shortest repr
            ("e".into(), Json::Obj(vec![])),
        ]);
        for rendered in [doc.render(), doc.render_pretty()] {
            let reparsed = Json::parse(&rendered).unwrap();
            assert_eq!(reparsed, doc);
            // Idempotence is what makes `cmp` a valid resume check.
            assert_eq!(reparsed.render(), doc.render());
            assert_eq!(reparsed.render_pretty(), doc.render_pretty());
        }
    }

    #[test]
    fn non_finite_numbers_become_null() {
        let doc = Json::Arr(vec![Json::Num(f64::NAN), Json::Num(f64::INFINITY)]);
        assert_eq!(doc.render(), "[null,null]");
        let back = Json::parse(&doc.render()).unwrap();
        assert!(back.as_arr().unwrap()[0].as_f64_or_nan().unwrap().is_nan());
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "123abc", "[1] x", "\"open"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn errors_name_what_and_where() {
        let at = |text: &str| Json::parse(text).map_err(|e| (e.kind, e.offset));
        assert_eq!(at("[1] x"), Err((ParseErrorKind::TrailingGarbage, 4)));
        assert_eq!(
            at("[1 2]"),
            Err((ParseErrorKind::Expected("',' or ']'"), 3))
        );
        assert_eq!(at("{\"a\" 1}"), Err((ParseErrorKind::Expected("':'"), 5)));
        assert_eq!(at("[tru]"), Err((ParseErrorKind::BadLiteral, 1)));
        assert_eq!(at("[-]"), Err((ParseErrorKind::BadNumber, 1)));
        assert_eq!(at("\"\\q\""), Err((ParseErrorKind::BadEscape, 2)));
        assert_eq!(at("{\"a\":[1,"), Err((ParseErrorKind::UnexpectedEnd, 8)));
        let e = Json::parse("[1] x").unwrap_err();
        assert_eq!(e.to_string(), "trailing garbage at byte 4");
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        // A million open brackets used to overflow the stack (SIGABRT).
        for open in ["[", "{\"k\":"] {
            let e = Json::parse(&open.repeat(1_000_000)).unwrap_err();
            let offset = MAX_DEPTH * open.len();
            assert_eq!(
                (e.kind, e.offset),
                (ParseErrorKind::TooDeep, offset),
                "{open}"
            );
            assert!(e.to_string().ends_with(&format!("at byte {offset}")));
        }
        // MAX_DEPTH levels parse; one more does not.
        let nested = |d: usize| format!("{}1{}", "[".repeat(d), "]".repeat(d));
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let e = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!((e.kind, e.offset), (ParseErrorKind::TooDeep, MAX_DEPTH));
        let obj = |d: usize| format!("{}1{}", "{\"k\":".repeat(d), "}".repeat(d));
        assert!(Json::parse(&obj(MAX_DEPTH)).is_ok());
        assert!(Json::parse(&obj(MAX_DEPTH + 1)).is_err());
    }

    #[test]
    fn parse_accepts_standard_documents() {
        let v = Json::parse(r#" { "k" : [ 1 , -2.5e3 , "sA" ] , "t" : false } "#).unwrap();
        assert_eq!(v.get("t"), Some(&Json::Bool(false)));
        let arr = v.get("k").unwrap().as_arr().unwrap();
        assert_eq!(arr[1].as_f64(), Some(-2500.0));
        assert_eq!(arr[2].as_str(), Some("sA"));
    }
}
