//! A tiny, dependency-free JSON value type with a stable writer and a
//! strict-enough reader.
//!
//! Two consumers share this module: the service's persistent result
//! cache (every `<key>.json` on disk is a rendered [`Json`] document)
//! and the bench pipeline's CI contract (`BENCH_sweep.json`), which
//! re-exports it as `coolplace_bench::json`. Both need the same
//! properties: object keys keep insertion order, floats render in
//! Rust's shortest round-trip form (so `f64`s survive a
//! render → parse cycle bit-exactly), and output is pretty-printed with
//! two-space indents. The vendored `serde` stub has no `serde_json`, so
//! this module carries the few hundred lines both pipelines need.

use std::fmt::Write as _;

/// A JSON document node. Object keys keep insertion order so rendered
/// schemas are stable.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null` (also what non-finite numbers render as).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (JSON does not distinguish int/float).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object constructor from ordered pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric value, if this node is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// String value, if this node is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array elements, if this node is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Numeric member lookup that *names what is missing*: the regression
    /// gate walks bench documents with this so a malformed or truncated
    /// section produces "section `delta` is missing key `max_drift_c`"
    /// instead of an opaque `None` (or, worse, a panic mid-check).
    ///
    /// # Errors
    ///
    /// Returns a message naming `section` and `key` when the key is
    /// absent or not a (finite-rendered) number.
    pub fn require_f64(&self, section: &str, key: &str) -> Result<f64, String> {
        match self.get(key) {
            Some(value) => match value.as_f64() {
                // NaN/infinity poison every threshold comparison
                // downstream (`NaN > tol` is false), so a gate fed a
                // non-finite number must fail by name, not silently pass.
                Some(v) if v.is_finite() => Ok(v),
                Some(v) => Err(format!(
                    "section `{section}`: key `{key}` is not finite ({v})"
                )),
                None => Err(format!("section `{section}`: key `{key}` is not a number")),
            },
            None => Err(format!("section `{section}` is missing key `{key}`")),
        }
    }

    /// Renders the document pretty-printed (two-space indent, trailing
    /// newline) — the stable on-disk format.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => {
                if v.is_finite() {
                    let _ = write!(out, "{v}");
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
                    out.push('\n');
                    indent(out, depth + 1);
                    item.write(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            Json::Obj(pairs) => {
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

    /// Parses a JSON document (objects, arrays, strings with the common
    /// escapes, numbers, booleans, null). Trailing garbage is an error.
    ///
    /// # Errors
    ///
    /// Returns a byte offset and message for malformed input.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(text, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
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
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
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

fn expect(bytes: &[u8], pos: &mut usize, token: &str) -> Result<(), String> {
    if bytes[*pos..].starts_with(token.as_bytes()) {
        *pos += token.len();
        Ok(())
    } else {
        Err(format!("expected `{token}` at byte {pos}", pos = *pos))
    }
}

fn parse_value(text: &str, pos: &mut usize) -> Result<Json, String> {
    let bytes = text.as_bytes();
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'n') => expect(bytes, pos, "null").map(|()| Json::Null),
        Some(b't') => expect(bytes, pos, "true").map(|()| Json::Bool(true)),
        Some(b'f') => expect(bytes, pos, "false").map(|()| Json::Bool(false)),
        Some(b'"') => parse_string(text, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(text, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(text, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, ":")?;
                let value = parse_value(text, pos)?;
                pairs.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(pairs));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_string(text: &str, pos: &mut usize) -> Result<String, String> {
    let bytes = text.as_bytes();
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}", pos = *pos));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                let esc = bytes
                    .get(*pos)
                    .ok_or_else(|| "unterminated escape".to_string())?;
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b't' => out.push('\t'),
                    b'r' => out.push('\r'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let hex = bytes
                            .get(*pos..*pos + 4)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or_else(|| "bad \\u escape".to_string())?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| "bad \\u escape".to_string())?;
                        *pos += 4;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    other => return Err(format!("unknown escape `\\{}`", *other as char)),
                }
            }
            Some(_) => {
                // Copy the run up to the next quote or escape verbatim.
                // Both delimiters are ASCII, so the run starts and ends
                // on character boundaries of the already-valid `text`.
                let end = bytes[*pos..]
                    .iter()
                    .position(|&b| b == b'"' || b == b'\\')
                    .map_or(bytes.len(), |n| *pos + n);
                let run = text.get(*pos..end).ok_or_else(|| {
                    format!("string splits a character at byte {pos}", pos = *pos)
                })?;
                out.push_str(run);
                *pos = end;
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos])
        .map_err(|_| format!("invalid number bytes at {start}"))?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("bad number `{text}` at byte {start}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_parse_round_trip() {
        let doc = Json::obj([
            ("schema_version", Json::Num(1.0)),
            ("name", Json::Str("sweep \"smoke\"\n".to_string())),
            ("ok", Json::Bool(true)),
            ("nothing", Json::Null),
            (
                "records",
                Json::Arr(vec![
                    Json::obj([("peak_c", Json::Num(83.25)), ("idx", Json::Num(0.0))]),
                    Json::obj([("peak_c", Json::Num(79.5)), ("idx", Json::Num(1.0))]),
                ]),
            ),
        ]);
        let text = doc.render();
        let back = Json::parse(&text).unwrap();
        assert_eq!(doc, back);
    }

    #[test]
    fn keys_keep_insertion_order() {
        let doc = Json::obj([("z", Json::Num(1.0)), ("a", Json::Num(2.0))]);
        let text = doc.render();
        assert!(text.find("\"z\"").unwrap() < text.find("\"a\"").unwrap());
    }

    #[test]
    fn accessors_walk_a_parsed_document() {
        let doc = Json::parse(r#"{"speedup": 3.5, "records": [{"peak_c": 83.1}]}"#).unwrap();
        assert_eq!(doc.get("speedup").and_then(Json::as_f64), Some(3.5));
        let records = doc.get("records").and_then(Json::as_arr).unwrap();
        assert_eq!(records[0].get("peak_c").and_then(Json::as_f64), Some(83.1));
    }

    #[test]
    fn require_f64_names_the_missing_piece() {
        let doc = Json::parse(r#"{"speedup": 3.5, "mode": "smoke"}"#).unwrap();
        assert_eq!(doc.require_f64("root", "speedup"), Ok(3.5));
        let missing = doc
            .require_f64("solver_scaling", "max_drift_k")
            .unwrap_err();
        assert!(missing.contains("solver_scaling"), "{missing}");
        assert!(missing.contains("max_drift_k"), "{missing}");
        let wrong_type = doc.require_f64("root", "mode").unwrap_err();
        assert!(wrong_type.contains("not a number"), "{wrong_type}");
    }

    #[test]
    fn non_finite_numbers_render_as_null() {
        assert_eq!(Json::Num(f64::NAN).render(), "null\n");
        assert_eq!(Json::Num(f64::INFINITY).render(), "null\n");
    }

    #[test]
    fn malformed_input_is_rejected() {
        for bad in ["{", "[1,", "\"open", "{\"a\" 1}", "12 34", "nul"] {
            assert!(Json::parse(bad).is_err(), "`{bad}` should fail");
        }
    }

    #[test]
    fn escaped_multibyte_and_long_strings_decode_exactly() {
        let escaped = Json::parse(r#""tab\tquote\"back\\slash\/nl\nsnow\u2603""#).unwrap();
        assert_eq!(
            escaped.as_str(),
            Some("tab\tquote\"back\\slash/nl\nsnow\u{2603}")
        );
        // ~1 MB of mixed one- to four-byte characters and escapes, as a
        // member of a document: parsing must stay linear in its length.
        let long: String = "aé€😀\"\\\n/".repeat(80_000);
        let doc = Json::obj([("long", Json::Str(long.clone())), ("n", Json::Num(1.0))]);
        let text = doc.render();
        assert!(text.len() > 1_000_000);
        let back = Json::parse(&text).unwrap();
        assert_eq!(back.get("long").and_then(Json::as_str), Some(long.as_str()));
        assert_eq!(back.get("n").and_then(Json::as_f64), Some(1.0));
    }

    #[test]
    fn unicode_escapes_parse() {
        let escaped = Json::parse("\"a\\u00e9b\"").unwrap();
        assert_eq!(escaped.as_str(), Some("aéb"));
        let verbatim = Json::parse("\"aéb\"").unwrap();
        assert_eq!(verbatim.as_str(), Some("aéb"));
    }
}
