//! Minimal JSON value: writer + recursive-descent parser.
//!
//! The benchmark harness records machine-readable result files
//! (`BENCH_*.json`), the CI smoke gates read them back, and
//! [`MetricsSnapshot`](crate::MetricsSnapshot) exports through the
//! same codec. The build environment has no registry access, so
//! instead of `serde_json` this is a ~200-line self-contained
//! implementation covering exactly the JSON subset those callers
//! emit: objects (insertion-ordered), arrays, strings, finite
//! numbers, booleans, and null. It lives here so the service crates
//! can serialize snapshots without depending on the bench harness.

use std::fmt::Write as _;

/// A JSON value. Object keys keep insertion order so emitted files are
/// stable and diffable.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number (non-finite values serialize as `null`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object.
    #[must_use]
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Inserts (or replaces) `key` in an object; panics on non-objects.
    pub fn set(&mut self, key: &str, value: Json) -> &mut Self {
        let Json::Obj(entries) = self else {
            panic!("Json::set on a non-object")
        };
        if let Some(slot) = entries.iter_mut().find(|(k, _)| k == key) {
            slot.1 = value;
        } else {
            entries.push((key.to_string(), value));
        }
        self
    }

    /// Builder-style [`set`](Self::set).
    #[must_use]
    pub fn with(mut self, key: &str, value: Json) -> Self {
        self.set(key, value);
        self
    }

    /// Member lookup on objects; `None` elsewhere.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes with 2-space indentation and a trailing newline.
    #[must_use]
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if !n.is_finite() {
                    out.push_str("null");
                } else if *n == n.trunc() && n.abs() < 1e15 {
                    let _ = write!(out, "{}", *n as i64);
                } else {
                    let _ = write!(out, "{n}");
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
                    out.push('\n');
                    indent(out, depth + 1);
                    item.write(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            Json::Obj(entries) => {
                if entries.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    indent(out, depth + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
        }
    }

    /// Parses a JSON document (rejects trailing garbage).
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing characters at byte {pos}"));
        }
        Ok(value)
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
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

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&b) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!(
            "expected '{}' at byte {}, found {:?}",
            b as char,
            *pos,
            bytes.get(*pos).map(|&c| c as char)
        ))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => {
            *pos += 1;
            let mut entries = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(entries));
            }
            loop {
                skip_ws(bytes, pos);
                let Json::Str(key) = parse_value(bytes, pos)? else {
                    return Err(format!("object key is not a string at byte {pos}"));
                };
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let value = parse_value(bytes, pos)?;
                entries.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(entries));
                    }
                    other => return Err(format!("expected ',' or '}}', found {other:?}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    other => return Err(format!("expected ',' or ']', found {other:?}")),
                }
            }
        }
        Some(b'"') => {
            *pos += 1;
            let mut s = String::new();
            loop {
                match bytes.get(*pos) {
                    None => return Err("unterminated string".into()),
                    Some(b'"') => {
                        *pos += 1;
                        return Ok(Json::Str(s));
                    }
                    Some(b'\\') => {
                        *pos += 1;
                        match bytes.get(*pos) {
                            Some(b'"') => s.push('"'),
                            Some(b'\\') => s.push('\\'),
                            Some(b'/') => s.push('/'),
                            Some(b'n') => s.push('\n'),
                            Some(b'r') => s.push('\r'),
                            Some(b't') => s.push('\t'),
                            Some(b'u') => {
                                let hex = bytes
                                    .get(*pos + 1..*pos + 5)
                                    .ok_or("truncated \\u escape")?;
                                let code = u32::from_str_radix(
                                    std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                    16,
                                )
                                .map_err(|e| e.to_string())?;
                                s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                                *pos += 4;
                            }
                            other => return Err(format!("bad escape {other:?}")),
                        }
                        *pos += 1;
                    }
                    Some(&b) => {
                        // Consume one UTF-8 scalar. The input is a &str,
                        // so sequences are valid — the lead byte alone
                        // gives the width (no need to re-validate the
                        // remaining document for every character).
                        let step = match b {
                            0x00..=0x7F => 1,
                            0xC0..=0xDF => 2,
                            0xE0..=0xEF => 3,
                            _ => 4,
                        };
                        let chunk = bytes
                            .get(*pos..*pos + step)
                            .ok_or("truncated UTF-8 sequence")?;
                        s.push_str(std::str::from_utf8(chunk).map_err(|e| e.to_string())?);
                        *pos += step;
                    }
                }
            }
        }
        Some(b't') if bytes[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if bytes[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Json::Bool(false))
        }
        Some(b'n') if bytes[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Json::Null)
        }
        Some(_) => {
            let start = *pos;
            while *pos < bytes.len()
                && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
            text.parse::<f64>()
                .map(Json::Num)
                .map_err(|_| format!("bad number {text:?} at byte {start}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_nested() {
        let doc = Json::obj()
            .with("schema", Json::Num(1.0))
            .with("name", Json::Str("hotpath".into()))
            .with("ok", Json::Bool(true))
            .with("none", Json::Null)
            .with(
                "rows",
                Json::Arr(vec![
                    Json::obj()
                        .with("ns", Json::Num(123.5))
                        .with("label", Json::Str("a/b \"q\"".into())),
                    Json::obj().with("ns", Json::Num(2e9)),
                ]),
            );
        let text = doc.pretty();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back, doc);
        assert_eq!(back.get("name").and_then(Json::as_str), Some("hotpath"));
        assert_eq!(
            back.get("rows").and_then(Json::as_arr).map(<[Json]>::len),
            Some(2)
        );
    }

    #[test]
    fn parses_hand_written_json() {
        let j = Json::parse(r#"{"a": [1, -2.5, 1e3], "b": {"c": null}, "d": "A\n"}"#).unwrap();
        let arr = j.get("a").and_then(Json::as_arr).unwrap();
        assert_eq!(arr[2].as_f64(), Some(1000.0));
        assert_eq!(j.get("d").and_then(Json::as_str), Some("A\n"));
    }

    #[test]
    fn rejects_malformed() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{}extra").is_err());
        assert!(Json::parse(r#"{"a" 1}"#).is_err());
    }

    #[test]
    fn set_replaces() {
        let mut o = Json::obj().with("x", Json::Num(1.0));
        o.set("x", Json::Num(2.0));
        assert_eq!(o.get("x").and_then(Json::as_f64), Some(2.0));
    }

    #[test]
    fn integers_print_without_exponent() {
        assert_eq!(Json::Num(1_000_000.0).pretty().trim(), "1000000");
        assert_eq!(Json::Num(f64::NAN).pretty().trim(), "null");
    }
}
