//! Minimal JSON value type, compact writer, and parser.
//!
//! Just enough JSON for the trace layer: the writer renders events as
//! compact single-line objects (JSONL), and the parser lets tests
//! validate emitted traces without an external dependency. Object keys
//! keep insertion order so output is deterministic.

use std::fmt;

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Int(i64),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(v) => Some(*v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(v) => Some(*v as f64),
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(v) => Some(*v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(entries) => Some(entries),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Append `s` as a quoted JSON string.
pub fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use fmt::Write;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Append `n` as a JSON integer.
pub fn write_int(out: &mut String, n: i64) {
    use fmt::Write;
    let _ = write!(out, "{n}");
}

/// Append `n` as a JSON number (`null` when non-finite).
pub fn write_num(out: &mut String, n: f64) {
    use fmt::Write;
    if n.is_finite() {
        // `{:?}` prints the shortest string that round-trips the
        // f64, and always includes a decimal point or exponent,
        // so integers-valued floats stay floats on re-parse.
        let _ = write!(out, "{n:?}");
    } else {
        // JSON has no NaN/Infinity.
        out.push_str("null");
    }
}

/// Append `b` as a JSON boolean.
pub fn write_bool(out: &mut String, b: bool) {
    out.push_str(if b { "true" } else { "false" });
}

/// Append `v` as compact JSON: no whitespace, object keys in order.
pub fn write_compact(out: &mut String, v: &Json) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => write_bool(out, *b),
        Json::Int(n) => write_int(out, *n),
        Json::Num(n) => write_num(out, *n),
        Json::Str(s) => write_escaped(out, s),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_compact(out, item);
            }
            out.push(']');
        }
        Json::Obj(entries) => {
            out.push('{');
            for (i, (k, val)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_escaped(out, k);
                out.push(':');
                write_compact(out, val);
            }
            out.push('}');
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        write_compact(&mut out, self);
        f.write_str(&out)
    }
}

/// Parse one JSON document (rejects trailing content).
pub fn parse(input: &str) -> Result<Json, String> {
    let mut p = Parser {
        src: input,
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing content at byte {}", p.pos));
    }
    Ok(v)
}

const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    src: &'a str,
    /// `src.as_bytes()`.
    bytes: &'a [u8],
    pos: usize,
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
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn eat_lit(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err("too deeply nested".to_string());
        }
        match self.peek() {
            Some(b'n') => self.eat_lit("null", Json::Null),
            Some(b't') => self.eat_lit("true", Json::Bool(true)),
            Some(b'f') => self.eat_lit("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    self.skip_ws();
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut entries = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(entries));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    self.skip_ws();
                    let val = self.value(depth + 1)?;
                    entries.push((key, val));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Obj(entries));
                        }
                        _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
                    }
                }
            }
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn string(&mut self) -> Result<String, String> {
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
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                            let code =
                                u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                            // Surrogates are not recombined; the writer
                            // never emits them.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next quote or escape as
                    // one slice of the (already valid) source. Both
                    // delimiters are ASCII, so they never split a
                    // UTF-8 scalar.
                    let len = self.bytes[self.pos..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .ok_or("unterminated string")?;
                    let run = self
                        .src
                        .get(self.pos..self.pos + len)
                        .ok_or("invalid utf-8 in string")?;
                    out.push_str(run);
                    self.pos += len;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "bad number".to_string())?;
        if is_float {
            text.parse::<f64>()
                .map(Json::Num)
                .map_err(|_| format!("bad number '{text}'"))
        } else {
            text.parse::<i64>()
                .map(Json::Int)
                .map_err(|_| format!("bad number '{text}'"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_compact_and_round_trips() {
        let v = Json::Obj(vec![
            ("a".to_string(), Json::Int(1)),
            ("b".to_string(), Json::Num(2.5)),
            ("c".to_string(), Json::Str("x\"y".to_string())),
            (
                "d".to_string(),
                Json::Arr(vec![Json::Bool(true), Json::Null]),
            ),
        ]);
        let s = v.to_string();
        assert_eq!(s, r#"{"a":1,"b":2.5,"c":"x\"y","d":[true,null]}"#);
        assert_eq!(parse(&s).unwrap(), v);
    }

    #[test]
    fn floats_round_trip_shortest() {
        for x in [0.1, 1.0, 1e-12, 123456.789, -2.5e30, f64::MIN_POSITIVE] {
            let s = Json::Num(x).to_string();
            let back = parse(&s).unwrap();
            assert_eq!(back.as_f64(), Some(x), "{s}");
        }
        // Non-finite values have no JSON representation.
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn escapes_control_characters() {
        let s = Json::Str("a\u{1}\n\t".to_string()).to_string();
        assert_eq!(s, r#""a\u0001\n\t""#);
        assert_eq!(parse(&s).unwrap().as_str(), Some("a\u{1}\n\t"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\":1} extra").is_err());
        assert!(parse("+5").is_err());
        assert!(parse("\"abc").is_err());
        assert!(parse("\"abc\\").is_err());
        assert!(parse(&"[".repeat(100_000)).is_err());
    }

    /// String parsing is linear: a multi-megabyte document (one long
    /// string plus many short ones, with escapes and multi-byte
    /// scalars) parses well inside a debug-build time bound that the
    /// per-character re-validation of the remaining input missed by
    /// orders of magnitude.
    #[test]
    fn large_string_heavy_documents_parse_in_linear_time() {
        let long = "héllo ↦ 世界 \"quoted\" back\\slash\n\u{1}".repeat(40_000);
        let mut items = vec![Json::Str(long)];
        items.extend((0..60_000).map(|i| Json::Str(format!("k{i}\t世"))));
        let v = Json::Obj(vec![("items".to_string(), Json::Arr(items))]);
        let s = v.to_string();
        assert!(s.len() >= 2 << 20, "only {} bytes", s.len());
        let start = std::time::Instant::now();
        let back = parse(&s).unwrap();
        let took = start.elapsed();
        assert_eq!(back, v);
        assert!(took.as_secs_f64() < 2.0, "parse took {took:?}");
    }

    #[test]
    fn unicode_passes_through() {
        let v = Json::Str("héllo ↦ 世界".to_string());
        let s = v.to_string();
        assert_eq!(parse(&s).unwrap(), v);
    }
}
