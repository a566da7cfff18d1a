//! # dkc-json — the workspace's minimal JSON value tree
//!
//! The workspace builds hermetically without serde, so every machine
//! rendering — `SolveReport` / `PartitionReport` in `dkc-core`, the
//! `dkc-serve` line protocol, the `dkc cache --json` stats — shares this
//! one tiny layer instead of re-implementing JSON per consumer.
//!
//! The supported schema is deliberately small: null, bools, **integer**
//! numbers, strings, arrays and objects. Numbers are kept as raw tokens so
//! `u64` values round-trip exactly (no `f64` detour); object member order
//! is preserved (insertion order), so renderings are deterministic and
//! byte-comparable.
//!
//! ```
//! use dkc_json::Json;
//!
//! let doc = Json::Obj(vec![
//!     ("cmd".into(), Json::str("query")),
//!     ("node".into(), Json::u64(42)),
//! ]);
//! let line = doc.render();
//! assert_eq!(line, r#"{"cmd":"query","node":42}"#);
//! assert_eq!(Json::parse(&line).unwrap(), doc);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;

/// One JSON value. Object member order is preserved (insertion order), so
/// renderings are deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Raw number token (this schema only emits integers).
    Num(String),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object: ordered `(key, value)` members.
    Obj(Vec<(String, Json)>),
    /// A pre-rendered fragment, written verbatim by [`Json::render_into`]
    /// and never produced by [`Json::parse`]. The caller guarantees the
    /// text is one valid compact JSON value; it lets a hot path splice in
    /// text it rendered (or cached) itself instead of building a tree.
    Raw(String),
}

/// The deepest nesting of arrays and objects [`Json::parse`] accepts
/// (serde_json's default recursion limit is also 128). It bounds the
/// parser's recursion, so a hostile request line cannot overflow the stack.
pub const MAX_DEPTH: usize = 128;

/// Parse failure: byte offset plus a short description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure in the input.
    pub offset: usize,
    /// Short human-readable description.
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// An integer number value.
    pub fn u64(v: u64) -> Json {
        Json::Num(v.to_string())
    }

    /// A signed integer number value.
    pub fn i64(v: i64) -> Json {
        Json::Num(v.to_string())
    }

    /// An integer number value from a `usize`.
    pub fn usize(v: usize) -> Json {
        Json::Num(v.to_string())
    }

    /// `Some(v)` → number, `None` → `null`.
    pub fn opt_u64(v: Option<u64>) -> Json {
        v.map_or(Json::Null, Json::u64)
    }

    /// `Some(v)` → number, `None` → `null`.
    pub fn opt_usize(v: Option<usize>) -> Json {
        v.map_or(Json::Null, Json::usize)
    }

    /// A string value.
    pub fn str(v: impl Into<String>) -> Json {
        Json::Str(v.into())
    }

    /// Object member lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Integer read; `None` when the value is not an integer number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(tok) => tok.parse().ok(),
            _ => None,
        }
    }

    /// Signed integer read.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Num(tok) => tok.parse().ok(),
            _ => None,
        }
    }

    /// Integer read as `usize`.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Json::Num(tok) => tok.parse().ok(),
            _ => None,
        }
    }

    /// Bool read.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// String read.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array read.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// `null`-tolerant integer read: `Null` → `Ok(None)`.
    pub fn as_opt_u64(&self) -> Option<Option<u64>> {
        match self {
            Json::Null => Some(None),
            Json::Num(tok) => tok.parse().ok().map(Some),
            _ => None,
        }
    }

    /// `null`-tolerant integer read as `usize`.
    pub fn as_opt_usize(&self) -> Option<Option<usize>> {
        match self {
            Json::Null => Some(None),
            Json::Num(tok) => tok.parse().ok().map(Some),
            _ => None,
        }
    }

    /// Renders compactly (no whitespace).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    /// Renders compactly into an existing buffer (appended, not cleared).
    /// Byte-identical to [`Json::render`]; lets hot paths reuse one
    /// `String` across replies instead of allocating per render.
    pub fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(tok) => out.push_str(tok),
            Json::Str(s) => render_string(s, out),
            Json::Raw(text) => out.push_str(text),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_string(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses one JSON document (trailing garbage is an error). Arrays and
    /// objects may nest at most [`MAX_DEPTH`] levels deep; deeper input is
    /// an error rather than a stack overflow.
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let bytes = input.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(err(pos, "trailing characters after the document"));
        }
        Ok(value)
    }
}

fn render_string(s: &str, out: &mut String) {
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

fn err(offset: usize, message: impl Into<String>) -> JsonError {
    JsonError { offset, message: message.into() }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), JsonError> {
    if bytes.get(*pos) == Some(&b) {
        *pos += 1;
        Ok(())
    } else {
        Err(err(*pos, format!("expected {:?}", b as char)))
    }
}

/// `depth` counts the arrays and objects already open around this value.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    skip_ws(bytes, pos);
    if matches!(bytes.get(*pos), Some(b'[' | b'{')) && depth == MAX_DEPTH {
        return Err(err(*pos, format!("nesting deeper than {MAX_DEPTH} levels")));
    }
    match bytes.get(*pos) {
        None => Err(err(*pos, "unexpected end of input")),
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
                    _ => return Err(err(*pos, "expected ',' or ']'")),
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
                expect(bytes, pos, b':')?;
                let value = parse_value(bytes, pos, depth + 1)?;
                members.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(members));
                    }
                    _ => return Err(err(*pos, "expected ',' or '}'")),
                }
            }
        }
        Some(b'-' | b'0'..=b'9') => {
            let start = *pos;
            if bytes[*pos] == b'-' {
                *pos += 1;
            }
            while *pos < bytes.len()
                && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
            {
                *pos += 1;
            }
            let tok = std::str::from_utf8(&bytes[start..*pos])
                .map_err(|_| err(start, "non-UTF-8 number"))?;
            if tok == "-" {
                return Err(err(start, "lone minus sign"));
            }
            Ok(Json::Num(tok.to_string()))
        }
        Some(&b) => Err(err(*pos, format!("unexpected byte {:?}", b as char))),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, JsonError> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(err(*pos, format!("expected {lit:?}")))
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    let start = *pos;
    loop {
        match bytes.get(*pos) {
            None => return Err(err(start, "unterminated string")),
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
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| err(*pos, "truncated \\u escape"))?;
                        let hex = std::str::from_utf8(hex)
                            .ok()
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or_else(|| err(*pos, "bad \\u escape"))?;
                        out.push(
                            char::from_u32(hex)
                                .ok_or_else(|| err(*pos, "non-scalar \\u escape"))?,
                        );
                        *pos += 4;
                    }
                    _ => return Err(err(*pos, "bad escape")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (the input is a &str, so the
                // boundaries are sound).
                let rest = std::str::from_utf8(&bytes[*pos..]).map_err(|_| err(*pos, "utf-8"))?;
                let c = rest.chars().next().unwrap();
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_parse_roundtrip() {
        let v = Json::Obj(vec![
            ("algo".into(), Json::str("lp")),
            ("k".into(), Json::usize(3)),
            ("limit".into(), Json::Null),
            ("big".into(), Json::u64(u64::MAX)),
            ("neg".into(), Json::i64(-7)),
            ("ok".into(), Json::Bool(true)),
            ("cliques".into(), Json::Arr(vec![Json::Arr(vec![Json::u64(1), Json::u64(2)])])),
            ("name".into(), Json::str("a \"b\"\\\n\u{1}")),
        ]);
        let text = v.render();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back, v);
        // u64::MAX survives exactly (no f64 detour).
        assert_eq!(back.get("big").unwrap().as_u64(), Some(u64::MAX));
        assert_eq!(back.get("neg").unwrap().as_i64(), Some(-7));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("nul").is_err());
        assert!(Json::parse("{}x").is_err());
        assert!(Json::parse("\"abc").is_err());
        let e = Json::parse("[1, 2, !]").unwrap_err();
        assert!(e.to_string().contains("byte"));
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let arrays = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        let objects =
            |depth: usize| format!("{}null{}", "{\"a\":".repeat(depth), "}".repeat(depth));
        for nested in [arrays, objects] {
            assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
            let e = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
            assert!(e.message.contains("nesting"), "{e}");
        }
        // A hostile line far beyond the cap fails fast instead of
        // overflowing the stack; so does one that never closes.
        assert!(Json::parse(&arrays(1_000_000)).is_err());
        assert!(Json::parse(&"[".repeat(1_000_000)).is_err());
    }

    #[test]
    fn parse_accepts_whitespace_and_escapes() {
        let v = Json::parse(" { \"a\" : [ 1 , null , \"x\\u0041\" ] } ").unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[2].as_str(), Some("xA"));
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[1].as_opt_u64(), Some(None));
    }

    #[test]
    fn raw_fragments_render_verbatim() {
        let tree = Json::Arr(vec![
            Json::Arr(vec![Json::u64(1), Json::u64(22)]),
            Json::Arr(vec![Json::u64(333), Json::u64(4444)]),
        ]);
        let doc = |cliques: Json| {
            Json::Obj(vec![("ok".into(), Json::Bool(true)), ("cliques".into(), cliques)])
        };
        let raw = doc(Json::Raw("[[1,22],[333,4444]]".into()));
        let text = raw.render();
        assert_eq!(text, r#"{"ok":true,"cliques":[[1,22],[333,4444]]}"#);
        // render and render_into agree, also when appending.
        let mut out = String::from("> ");
        raw.render_into(&mut out);
        assert_eq!(out, format!("> {text}"));
        // Parsing yields the equivalent ordinary tree, never a Raw.
        assert_eq!(text, doc(tree.clone()).render());
        assert_eq!(Json::parse(&text).unwrap(), doc(tree));
    }
}
