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
//! two-space indents, except that an array holding no object renders on
//! one line (`[16, 16]`, `[[3, 4], [3, 5]]`), which keeps long numeric
//! arrays compact. The vendored `serde` stub has no `serde_json`, so
//! this module carries the few hundred lines both pipelines need.
//!
//! One reader turns text into a [`Tape`], a flat vector of tokens;
//! [`Json::parse`] builds a tree from it, and the result store decodes
//! a disk hit straight from the tape through [`JsonView`], which both a
//! tree node and a [`TapeValue`] implement.

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
    /// newline; an array with no object inside it stays on one line) —
    /// the stable on-disk format.
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
            Json::Num(v) => write_number(out, *v),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if !self.holds_object() {
                    out.push('[');
                    for (i, item) in items.iter().enumerate() {
                        if i > 0 {
                            out.push_str(", ");
                        }
                        item.write(out, depth);
                    }
                    out.push(']');
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

    /// Whether this node is an object or an array with an object
    /// somewhere inside it.
    fn holds_object(&self) -> bool {
        match self {
            Json::Obj(_) => true,
            Json::Arr(items) => items.iter().any(Json::holds_object),
            _ => false,
        }
    }

    /// Parses a JSON document as [`Tape::parse`] reads it, then builds
    /// its tree.
    ///
    /// # Errors
    ///
    /// Returns a byte offset and message for malformed input, or for
    /// nesting deeper than [`MAX_DEPTH`].
    pub fn parse(text: &str) -> Result<Json, String> {
        Tape::parse(text).map(|tape| tape.root().to_json())
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

/// Writes a number in Rust's shortest round-trip form, `null` when it
/// is not finite. An integral value below 10^15 in magnitude, other than
/// −0.0 (which `{v}` prints as `-0`), is written through integer
/// formatting: it is exactly an `i64` whose digits are the ones `{v}`
/// prints, without the shortest-digits search.
fn write_number(out: &mut String, v: f64) {
    if !v.is_finite() {
        out.push_str("null");
        return;
    }
    let int = v as i64;
    if v.abs() < 1e15 && int as f64 == v && !(int == 0 && v.is_sign_negative()) {
        let _ = write!(out, "{int}");
    } else {
        let _ = write!(out, "{v}");
    }
}

/// Deepest nesting of arrays and objects that [`Tape::parse`], and so
/// [`Json::parse`], accepts. Deeper input is an error, never a deep
/// recursion; no document the workspace writes nests more than ~10
/// levels.
pub const MAX_DEPTH: usize = 128;

/// Read-only access to a parsed value, by a tree node (`&Json`) or a
/// tape value ([`TapeValue`]). The wire decoders are written once over
/// it, so a disk hit decodes straight from its tape.
pub trait JsonView<'a>: Copy {
    /// The elements of an array, in order.
    type Items: ExactSizeIterator<Item = Self>;
    /// The first member named `key`, if this is an object holding one.
    fn get(self, key: &str) -> Option<Self>;
    /// Numeric value, if this is a number.
    fn as_f64(self) -> Option<f64>;
    /// String value, if this is a string.
    fn as_str(self) -> Option<&'a str>;
    /// Whether this is `null`.
    fn is_null(self) -> bool;
    /// The elements, if this is an array.
    fn items(self) -> Option<Self::Items>;
}

impl<'a> JsonView<'a> for &'a Json {
    type Items = std::slice::Iter<'a, Json>;

    fn get(self, key: &str) -> Option<Self> {
        Json::get(self, key)
    }

    fn as_f64(self) -> Option<f64> {
        Json::as_f64(self)
    }

    fn as_str(self) -> Option<&'a str> {
        Json::as_str(self)
    }

    fn is_null(self) -> bool {
        matches!(self, Json::Null)
    }

    fn items(self) -> Option<Self::Items> {
        self.as_arr().map(<[Json]>::iter)
    }
}

/// One token of a [`Tape`].
#[derive(Debug, Clone, Copy)]
enum Token {
    Null,
    Bool(bool),
    Num(f64),
    /// Bytes `start..end` of the source text or, for a string that held
    /// escapes, of the tape's buffer of unescaped strings.
    Str {
        start: u32,
        end: u32,
        escaped: bool,
    },
    /// An array of `len` elements, whose tokens end before index `end`.
    Arr {
        len: u32,
        end: u32,
    },
    /// An object of `len` members, each a key's token followed by its
    /// value's, which end before index `end`.
    Obj {
        len: u32,
        end: u32,
    },
}

/// A JSON document read into one flat vector of tokens in document
/// order, the layout of simdjson's tape (Langdale & Lemire, "Parsing
/// Gigabytes of JSON per Second", 2019), instead of a tree. A container
/// records its element count and where its tokens end, so a reader
/// skips a member in one step; a string without escapes is a span of
/// the source text. Reading a document allocates the token vector and,
/// only when some string holds escapes, one buffer for them.
#[derive(Debug)]
pub struct Tape<'t> {
    text: &'t str,
    tokens: Vec<Token>,
    unescaped: String,
}

impl<'t> Tape<'t> {
    /// Reads a JSON document (objects, arrays, strings with the common
    /// escapes, numbers, booleans, null). Trailing garbage and nesting
    /// deeper than [`MAX_DEPTH`] are errors. Open containers live on an
    /// explicit stack, so no input can overflow the thread's stack.
    ///
    /// # Errors
    ///
    /// Returns a byte offset and message for malformed input.
    pub fn parse(text: &'t str) -> Result<Tape<'t>, String> {
        let bytes = text.as_bytes();
        if u32::try_from(bytes.len()).is_err() {
            return Err(format!("a document of {} bytes is too long", bytes.len()));
        }
        let mut tape = Tape {
            text,
            // An answer document holds about one token per 5–6 bytes, so
            // a quarter of its length is room enough never to regrow; the
            // reservation is capped, so a huge document grows its tape
            // only as it proves to hold tokens.
            tokens: Vec::with_capacity((bytes.len() / 4).min(1 << 16)),
            unescaped: String::new(),
        };
        // The containers still open, innermost last.
        let mut open: Vec<Open> = Vec::new();
        let mut pos = 0;
        loop {
            // A value starts here.
            skip_ws(bytes, &mut pos);
            match bytes.get(pos) {
                Some(&open_byte @ (b'[' | b'{')) => {
                    if open.len() == MAX_DEPTH {
                        return Err(format!(
                            "nesting deeper than {MAX_DEPTH} levels at byte {pos}"
                        ));
                    }
                    let container = Open {
                        at: tape.tokens.len(),
                        len: 0,
                        is_obj: open_byte == b'{',
                    };
                    // A placeholder until the container closes.
                    tape.tokens.push(Token::Null);
                    pos += 1;
                    skip_ws(bytes, &mut pos);
                    if bytes.get(pos) != Some(&container.close_byte()) {
                        open.push(container);
                        if container.is_obj {
                            tape.read_key(&mut pos)?;
                        }
                        continue;
                    }
                    pos += 1;
                    tape.close(container);
                }
                _ => tape.read_scalar(&mut pos)?,
            }
            // A value just ended: count it into its container, then
            // read on past a separator or close containers.
            loop {
                let Some(top) = open.last_mut() else {
                    skip_ws(bytes, &mut pos);
                    if pos != bytes.len() {
                        return Err(format!("trailing data at byte {pos}"));
                    }
                    return Ok(tape);
                };
                top.len += 1;
                let top = *top;
                skip_ws(bytes, &mut pos);
                match bytes.get(pos) {
                    Some(b',') => {
                        pos += 1;
                        if top.is_obj {
                            skip_ws(bytes, &mut pos);
                            tape.read_key(&mut pos)?;
                        }
                        break;
                    }
                    Some(&b) if b == top.close_byte() => {
                        pos += 1;
                        open.pop();
                        tape.close(top);
                    }
                    _ => {
                        return Err(format!(
                            "expected `,` or `{}` at byte {pos}",
                            top.close_byte() as char
                        ))
                    }
                }
            }
        }
    }

    /// The document's top-level value.
    pub fn root(&self) -> TapeValue<'_> {
        TapeValue { tape: self, at: 0 }
    }

    /// Writes a container's token once its last token is on the tape.
    fn close(&mut self, container: Open) {
        // The text is below 4 GiB and every token takes at least one of
        // its bytes, so the count fits.
        let (len, end) = (container.len, self.tokens.len() as u32);
        if let Some(token) = self.tokens.get_mut(container.at) {
            *token = if container.is_obj {
                Token::Obj { len, end }
            } else {
                Token::Arr { len, end }
            };
        }
    }

    /// Reads an object member's key and the `:` after it.
    fn read_key(&mut self, pos: &mut usize) -> Result<(), String> {
        let key = self.read_string(pos)?;
        self.tokens.push(key);
        let bytes = self.text.as_bytes();
        skip_ws(bytes, pos);
        expect(bytes, pos, ":")
    }

    fn read_scalar(&mut self, pos: &mut usize) -> Result<(), String> {
        let bytes = self.text.as_bytes();
        let token = match bytes.get(*pos) {
            None => return Err("unexpected end of input".to_string()),
            Some(b'n') => expect(bytes, pos, "null").map(|()| Token::Null)?,
            Some(b't') => expect(bytes, pos, "true").map(|()| Token::Bool(true))?,
            Some(b'f') => expect(bytes, pos, "false").map(|()| Token::Bool(false))?,
            Some(b'"') => self.read_string(pos)?,
            Some(_) => Token::Num(parse_number(bytes, pos)?),
        };
        self.tokens.push(token);
        Ok(())
    }

    /// Reads a string: a span of the text when it holds no escape,
    /// else a span of the unescaped buffer.
    fn read_string(&mut self, pos: &mut usize) -> Result<Token, String> {
        let text = self.text;
        let bytes = text.as_bytes();
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected string at byte {pos}", pos = *pos));
        }
        *pos += 1;
        let start = *pos;
        let run_end = quote_or_escape(bytes, start);
        if bytes.get(run_end) == Some(&b'"') {
            *pos = run_end + 1;
            return Ok(Token::Str {
                start: start as u32,
                end: run_end as u32,
                escaped: false,
            });
        }
        let from = self.unescaped.len();
        let out = &mut self.unescaped;
        loop {
            match bytes.get(*pos) {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    *pos += 1;
                    // The unescaped buffer is never longer than the text.
                    return Ok(Token::Str {
                        start: from as u32,
                        end: out.len() as u32,
                        escaped: true,
                    });
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
                    let end = quote_or_escape(bytes, *pos);
                    let run = text.get(*pos..end).ok_or_else(|| {
                        format!("string splits a character at byte {pos}", pos = *pos)
                    })?;
                    out.push_str(run);
                    *pos = end;
                }
            }
        }
    }

    fn str_at(&self, start: u32, end: u32, escaped: bool) -> &str {
        let source = if escaped { &self.unescaped } else { self.text };
        source.get(start as usize..end as usize).unwrap_or_default()
    }
}

/// A container [`Tape::parse`] has opened and not yet closed.
#[derive(Debug, Clone, Copy)]
struct Open {
    /// Index of its token.
    at: usize,
    /// Elements (or members) read so far.
    len: u32,
    is_obj: bool,
}

impl Open {
    fn close_byte(self) -> u8 {
        if self.is_obj {
            b'}'
        } else {
            b']'
        }
    }
}

/// The index of the first `"` or `\` at or after `from`, or the length.
fn quote_or_escape(bytes: &[u8], from: usize) -> usize {
    bytes
        .get(from..)
        .and_then(|rest| rest.iter().position(|&b| b == b'"' || b == b'\\'))
        .map_or(bytes.len(), |n| from + n)
}

/// A value inside a [`Tape`]: the tape and the index of its first token.
#[derive(Debug, Clone, Copy)]
pub struct TapeValue<'a> {
    tape: &'a Tape<'a>,
    at: usize,
}

impl<'a> TapeValue<'a> {
    fn token(self) -> Option<Token> {
        self.tape.tokens.get(self.at).copied()
    }

    /// The index one past this value's last token.
    fn end(self) -> usize {
        match self.token() {
            Some(Token::Arr { end, .. } | Token::Obj { end, .. }) => end as usize,
            _ => self.at + 1,
        }
    }

    /// An object's members as `(key, value)` pairs, in document order;
    /// nothing for any other value.
    fn members(self) -> impl Iterator<Item = (TapeValue<'a>, TapeValue<'a>)> {
        let len = match self.token() {
            Some(Token::Obj { len, .. }) => len as usize,
            _ => 0,
        };
        let tape = self.tape;
        let mut at = self.at + 1;
        (0..len).map(move |_| {
            let key = TapeValue { tape, at };
            let value = TapeValue { tape, at: at + 1 };
            at = value.end();
            (key, value)
        })
    }

    /// The value as a [`Json`] tree.
    fn to_json(self) -> Json {
        match self.token() {
            None | Some(Token::Null) => Json::Null,
            Some(Token::Bool(b)) => Json::Bool(b),
            Some(Token::Num(v)) => Json::Num(v),
            Some(Token::Str {
                start,
                end,
                escaped,
            }) => Json::Str(self.tape.str_at(start, end, escaped).to_string()),
            Some(Token::Arr { .. }) => Json::Arr(
                self.items()
                    .map_or_else(Vec::new, |items| items.map(Self::to_json).collect()),
            ),
            Some(Token::Obj { .. }) => Json::Obj(
                self.members()
                    .map(|(k, v)| (k.as_str().unwrap_or_default().to_string(), v.to_json()))
                    .collect(),
            ),
        }
    }
}

impl<'a> JsonView<'a> for TapeValue<'a> {
    type Items = TapeItems<'a>;

    fn get(self, key: &str) -> Option<Self> {
        self.members()
            .find(|(k, _)| k.as_str() == Some(key))
            .map(|(_, v)| v)
    }

    fn as_f64(self) -> Option<f64> {
        match self.token() {
            Some(Token::Num(v)) => Some(v),
            _ => None,
        }
    }

    fn as_str(self) -> Option<&'a str> {
        match self.token() {
            Some(Token::Str {
                start,
                end,
                escaped,
            }) => Some(self.tape.str_at(start, end, escaped)),
            _ => None,
        }
    }

    fn is_null(self) -> bool {
        matches!(self.token(), Some(Token::Null))
    }

    fn items(self) -> Option<TapeItems<'a>> {
        match self.token() {
            Some(Token::Arr { len, .. }) => Some(TapeItems {
                tape: self.tape,
                at: self.at + 1,
                left: len as usize,
            }),
            _ => None,
        }
    }
}

/// The elements of a tape array ([`JsonView::items`]).
#[derive(Debug, Clone)]
pub struct TapeItems<'a> {
    tape: &'a Tape<'a>,
    at: usize,
    left: usize,
}

impl<'a> Iterator for TapeItems<'a> {
    type Item = TapeValue<'a>;

    fn next(&mut self) -> Option<TapeValue<'a>> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let item = TapeValue {
            tape: self.tape,
            at: self.at,
        };
        self.at = item.end();
        Some(item)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for TapeItems<'_> {}

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

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<f64, String> {
    if let Some(v) = parse_integer(bytes, pos) {
        return Ok(v);
    }
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos])
        .map_err(|_| format!("invalid number bytes at {start}"))?;
    text.parse::<f64>()
        .map_err(|_| format!("bad number `{text}` at byte {start}"))
}

/// Reads an integer token, an optional `-` and 1–15 digits not followed
/// by `.`, `e`, `E`, `+`, `-` or a 16th digit, through a `u64`. Every
/// such value is below 10^15 < 2^53, so it converts to `f64` exactly and
/// carries the bits `str::parse::<f64>` gives. Any other token returns
/// `None` with `pos` unmoved, for the general reader.
fn parse_integer(bytes: &[u8], pos: &mut usize) -> Option<f64> {
    let negative = bytes.get(*pos) == Some(&b'-');
    let first = *pos + usize::from(negative);
    let mut end = first;
    let mut value = 0u64;
    while let Some(&b) = bytes.get(end) {
        if !b.is_ascii_digit() {
            break;
        }
        if end - first == 15 {
            return None;
        }
        value = value * 10 + u64::from(b - b'0');
        end += 1;
    }
    if end == first || matches!(bytes.get(end), Some(b'.' | b'e' | b'E' | b'+' | b'-')) {
        return None;
    }
    *pos = end;
    let magnitude = value as f64;
    Some(if negative { -magnitude } else { magnitude })
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
    fn arrays_without_objects_render_on_one_line() {
        let num = |v: f64| Json::Num(v);
        let pair = |a: f64, b: f64| Json::Arr(vec![num(a), num(b)]);
        let doc = Json::obj([
            ("mesh", pair(16.0, 16.0)),
            ("cells", Json::Arr(vec![pair(3.0, 4.0), pair(3.0, 5.0)])),
            (
                "ids",
                Json::Arr(vec![Json::Str("eri:8".to_string()), Json::Null]),
            ),
            ("none", Json::Arr(Vec::new())),
            (
                "points",
                Json::Arr(vec![Json::obj([("at", pair(1.0, 2.5))]), pair(0.0, 1.0)]),
            ),
        ]);
        let text = doc.render();
        assert_eq!(
            text,
            "{\n  \"mesh\": [16, 16],\n  \"cells\": [[3, 4], [3, 5]],\n  \
             \"ids\": [\"eri:8\", null],\n  \"none\": [],\n  \"points\": [\n    {\n      \
             \"at\": [1, 2.5]\n    },\n    [0, 1]\n  ]\n}\n"
        );
        assert_eq!(Json::parse(&text).unwrap(), doc);
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
        assert_eq!(Json::Num(f64::NEG_INFINITY).render(), "null\n");
    }

    #[test]
    fn finite_numbers_render_as_display_does() {
        // The integer path's edges (−0.0, ±(10^15 − 1), 10^15), values
        // past it up to and beyond 2^53, and fractions.
        let edges = [
            0.0,
            -0.0,
            1.0,
            -1.0,
            999_999_999_999_999.0,
            -999_999_999_999_999.0,
            1e15,
            -1e15,
            9_007_199_254_740_991.0,
            9_007_199_254_740_992.0,
            1e16,
            0.5,
            -0.5,
            1e-7,
            83.25,
        ];
        let small = (-2_000..=2_000).map(f64::from);
        let powers = (0..=16).flat_map(|k| {
            let p = 10f64.powi(k);
            [p - 1.0, p, p + 1.0, -p, 1.0 / p]
        });
        for v in edges.into_iter().chain(small).chain(powers) {
            assert_eq!(Json::Num(v).render(), format!("{v}\n"), "{v:?}");
        }
    }

    #[test]
    fn numbers_parse_to_the_bits_str_parse_gives() {
        // Integer-shaped tokens the fast path takes or must hand back:
        // signs, leading zeros, a bare `-`, a trailing sign, runs of 15,
        // 16 and 17 digits (the last two past 2^53 rounding), exponents
        // and fractions. Each reads as `str::parse::<f64>` reads the
        // whole token, or fails where it fails, at the top level, as an
        // array element and as an object value.
        let tokens = [
            "0",
            "-0",
            "007",
            "-007",
            "+5",
            "-",
            "1-2",
            "1+2",
            "999999999999999",
            "-999999999999999",
            "9007199254740993",
            "1000000000000000",
            "12345678901234567",
            "-12345678901234567",
            "1e5",
            "1E5",
            "1.0",
            "-0.0",
            "0.1",
        ];
        for token in tokens {
            let want = token.parse::<f64>().ok().map(f64::to_bits);
            let top = Json::parse(token).ok().and_then(|d| d.as_f64());
            let element = Json::parse(&format!("[{token}, 1]"))
                .ok()
                .and_then(|d| d.as_arr().and_then(|a| a[0].as_f64()));
            let value = Json::parse(&format!("{{\"k\": {token}, \"n\": 1}}"))
                .ok()
                .and_then(|d| d.get("k").and_then(Json::as_f64));
            for (place, got) in [("top", top), ("element", element), ("value", value)] {
                assert_eq!(got.map(f64::to_bits), want, "`{token}` as {place}");
            }
        }
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
    fn hostile_nesting_is_an_error_not_a_stack_overflow() {
        // 1 MiB of `[` on a 256 KiB stack: a recursive reader overflows
        // it; the tape stops at its nesting limit.
        let reader = std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(|| {
                let hostile = "[".repeat(1 << 20);
                let err = Json::parse(&hostile).unwrap_err();
                assert!(err.contains("nesting"), "{err}");
                let objects = "{\"k\": ".repeat(1 << 16);
                assert!(Json::parse(&objects).is_err());
            })
            .unwrap();
        reader.join().unwrap();
        // The limit itself: `MAX_DEPTH` levels parse, one more does not.
        let nested = |depth: usize| format!("{}1{}", "[".repeat(depth), "]".repeat(depth));
        let deepest = Json::parse(&nested(MAX_DEPTH)).unwrap();
        assert_eq!(deepest.render().trim_end(), nested(MAX_DEPTH));
        assert!(Json::parse(&nested(MAX_DEPTH + 1)).is_err());
    }

    #[test]
    fn tape_values_read_as_the_tree_does() {
        let text =
            r#"{"a": [1, [2, 3], {"b": null}, "x\"y"], "a": 2, "e": {}, "f": [], "t": true}"#;
        let tape = Tape::parse(text).unwrap();
        let root = tape.root();
        let tree = Json::parse(text).unwrap();
        // A duplicated key resolves to its first value, in both.
        let a = root.get("a").unwrap();
        assert_eq!(
            tree.get("a").and_then(Json::as_arr).map(<[Json]>::len),
            Some(4)
        );
        let items: Vec<_> = a.items().unwrap().collect();
        assert_eq!(a.items().unwrap().len(), 4);
        assert_eq!(items[0].as_f64(), Some(1.0));
        let inner: Vec<_> = items[1]
            .items()
            .unwrap()
            .filter_map(JsonView::as_f64)
            .collect();
        assert_eq!(inner, [2.0, 3.0]);
        assert!(items[2].get("b").unwrap().is_null());
        assert_eq!(items[3].as_str(), Some("x\"y"));
        assert_eq!(root.get("e").and_then(|e| e.get("b")).map(|_| ()), None);
        assert_eq!(root.get("f").unwrap().items().unwrap().len(), 0);
        assert!(root.get("t").unwrap().as_f64().is_none());
        assert!(root.get("missing").is_none());
        assert!(a.as_str().is_none() && a.get("a").is_none());
        assert_eq!(root.to_json(), tree);
    }

    #[test]
    fn unicode_escapes_parse() {
        let escaped = Json::parse("\"a\\u00e9b\"").unwrap();
        assert_eq!(escaped.as_str(), Some("aéb"));
        let verbatim = Json::parse("\"aéb\"").unwrap();
        assert_eq!(verbatim.as_str(), Some("aéb"));
    }
}
