//! The repository's one JSON implementation: a value type, its
//! compact renderer, and a parser.
//!
//! Every JSON surface speaks it — the daemon wire protocol and its
//! client, the conformance report, the bench artifact, the Chrome
//! trace writer ([`crate::trace::chrome_trace_json`]) and the
//! `tracecheck` validator. It lives in `implicit-core`, which has no
//! dependencies, so every crate and binary can reach it. The renderer
//! and parser round-trip: `parse_json(&j.render())` renders back to
//! the same bytes.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Clone, Debug)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// An integer (counters, lengths, budgets).
    Int(i64),
    /// A float, rendered with limited precision.
    Num(f64),
    /// A string, escaped on render.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience constructor for object fields.
    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// Renders the value as compact JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Num(x) => {
                if x.is_finite() {
                    let _ = write!(out, "{x:.3}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => escape_into(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    escape_into(out, k);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Object field lookup (first match; `None` on non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload (`Int` exactly, `Num` if integral).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(n) => Some(*n),
            Json::Num(x) if x.fract() == 0.0 && x.is_finite() => Some(*x as i64),
            _ => None,
        }
    }

    /// The boolean payload, if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The array payload, if this is an `Arr`.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// String field accessor: `get(key)` then `as_str`.
    pub fn str_field(&self, key: &str) -> Option<&str> {
        self.get(key).and_then(Json::as_str)
    }

    /// Integer field accessor: `get(key)` then `as_i64`.
    pub fn int_field(&self, key: &str) -> Option<i64> {
        self.get(key).and_then(Json::as_i64)
    }
}

/// Appends `s` to `out` as a quoted JSON string literal — the one
/// escaper, for values and object keys alike. Quotes, backslashes and
/// control characters are escaped; everything else is copied through
/// a run at a time.
fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if !matches!(b, b'"' | b'\\' | 0..=0x1f) {
            continue;
        }
        out.push_str(&s[run..i]);
        run = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Maximum nesting depth the parser accepts. Daemon frames are capped
/// at 1 MiB anyway; this bounds recursion on adversarial `[[[[…`
/// input long before the stack does.
const MAX_JSON_DEPTH: usize = 512;

/// Parses one JSON document (the renderer's grammar plus the standard
/// escapes and number forms it never emits), rejecting trailing
/// garbage, nesting deeper than 512 levels, and raw control
/// characters inside strings (RFC 8259 §7). Runs in time linear in
/// the input.
///
/// # Errors
///
/// A human-readable description of the first syntax error, with its
/// byte offset.
pub fn parse_json(src: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: src.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing characters at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.peek() {
            self.pos += 1;
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
            Err(format!("expected `{}` at byte {}", char::from(b), self.pos))
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    /// The items of an array or the fields of an object, after the
    /// opening bracket: `item` parses one element, `close` ends them.
    fn seq<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(items);
        }
        loop {
            self.skip_ws();
            items.push(item(self)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b) if b == close => {
                    self.pos += 1;
                    return Ok(items);
                }
                _ => {
                    return Err(format!(
                        "expected `,` or `{}` at byte {}",
                        char::from(close),
                        self.pos
                    ))
                }
            }
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_JSON_DEPTH {
            return Err(format!("nesting deeper than {MAX_JSON_DEPTH}"));
        }
        match self.peek() {
            Some(b'n') => self.lit("null", Json::Null),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                self.pos += 1;
                self.seq(b']', |p| p.value(depth + 1)).map(Json::Arr)
            }
            Some(b'{') => {
                self.pos += 1;
                self.seq(b'}', |p| {
                    let k = p.string()?;
                    p.skip_ws();
                    p.expect(b':')?;
                    p.skip_ws();
                    Ok((k, p.value(depth + 1)?))
                })
                .map(Json::Obj)
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected byte at {}", self.pos)),
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| format!("invalid number at byte {start}"))?;
        if float {
            text.parse::<f64>()
                .map(Json::Num)
                .map_err(|_| format!("invalid number `{text}` at byte {start}"))
        } else {
            text.parse::<i64>()
                .map(Json::Int)
                .map_err(|_| format!("invalid integer `{text}` at byte {start}"))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, backslash or control
            // byte in one piece. Those bytes are ASCII, so they never
            // split a UTF-8 sequence and only the run is checked.
            let start = self.pos;
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            let run = std::str::from_utf8(&self.bytes[start..self.pos])
                .map_err(|_| format!("invalid UTF-8 in string at byte {start}"))?;
            out.push_str(run);
            match self.peek() {
                None => return Err("unterminated string".to_owned()),
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
                            let code = hex
                                .iter()
                                .try_fold(0, |code, &b| {
                                    Some(code * 16 + char::from(b).to_digit(16)?)
                                })
                                .ok_or("invalid \\u escape")?;
                            // The renderer only emits \u for control
                            // characters; accept any BMP scalar and
                            // map surrogates to U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("invalid escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    return Err(format!(
                        "raw control character in string at byte {}",
                        self.pos
                    ))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_what_it_renders() {
        let j = Json::obj(vec![
            ("s", Json::Str("a\"b\\c\nd\u{1}\té".into())),
            ("n", Json::Int(-3)),
            ("x", Json::Num(1.5)),
            ("b", Json::Bool(true)),
            ("z", Json::Null),
            ("a", Json::Arr(vec![Json::Int(1), Json::Str("two".into())])),
            ("o", Json::obj(vec![("k\"ey", Json::Int(9))])),
        ]);
        let text = j.render();
        assert_eq!(
            text,
            r#"{"s":"a\"b\\c\nd\u0001\té","n":-3,"x":1.500,"b":true,"z":null,"a":[1,"two"],"o":{"k\"ey":9}}"#
        );
        let round = parse_json(&text).expect("roundtrip parse");
        assert_eq!(round.render(), text);
        assert_eq!(round.str_field("s"), Some("a\"b\\c\nd\u{1}\té"));
        assert_eq!(round.int_field("n"), Some(-3));
        assert_eq!(round.get("x").and_then(Json::as_i64), None);
        assert_eq!(round.get("b").and_then(Json::as_bool), Some(true));
        assert_eq!(round.get("o").and_then(|o| o.int_field("k\"ey")), Some(9));
    }

    #[test]
    fn parses_scalars_nesting_and_escapes() {
        let doc = parse_json(" {\"a\":[1,-2.5,true,null,\"x\\nA\\u0041\\/\"],\"b\":{}}\n")
            .expect("valid json");
        let items = doc.get("a").and_then(Json::as_arr).expect("array");
        assert_eq!(items.len(), 5);
        assert_eq!(items[0].as_i64(), Some(1));
        assert!(matches!(items[1], Json::Num(x) if x == -2.5));
        assert_eq!(items[2].as_bool(), Some(true));
        assert!(matches!(items[3], Json::Null));
        assert_eq!(items[4].as_str(), Some("x\nAA/"));
        assert!(matches!(doc.get("b"), Some(Json::Obj(f)) if f.is_empty()));
    }

    #[test]
    fn rejects_garbage() {
        for bad in [
            "",
            "{",
            "[1,",
            "\"abc",
            "{\"k\":}",
            "01x",
            "nulll x",
            "[1] 2",
            "{} x",
            "{\"k\" 1}",
            "\"\\u12\"",
            "\"\\u+123\"",
            "\"\\q\"",
        ] {
            assert!(parse_json(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn bounds_nesting_depth() {
        let ok = format!(
            "{}{}",
            "[".repeat(MAX_JSON_DEPTH),
            "]".repeat(MAX_JSON_DEPTH)
        );
        assert!(parse_json(&ok).is_ok());
        // A depth bomb is a bounded error, not a stack overflow.
        let err = parse_json(&"[".repeat(200_000)).unwrap_err();
        assert!(err.contains("nesting deeper than 512"), "{err}");
    }

    #[test]
    fn rejects_raw_control_characters_in_strings() {
        for bad in ["\"a\nb\"", "\"\t\"", "{\"k\u{1}\":1}"] {
            let err = parse_json(bad).unwrap_err();
            assert!(err.contains("raw control character"), "{bad:?}: {err}");
        }
    }

    #[test]
    fn parses_megabyte_strings_in_linear_time() {
        // Linear in the string's length: re-validating the rest of the
        // document at each character is quadratic, tens of seconds on
        // these inputs in a debug build.
        for unit in ["a", "é"] {
            let body = unit.repeat((1 << 20) / unit.len());
            let doc = format!("{{\"op\":\"open\",\"prelude\":\"{body}\"}}");
            let start = std::time::Instant::now();
            let parsed = parse_json(&doc).expect("parses");
            assert!(
                start.elapsed().as_secs_f64() < 2.0,
                "{unit}: {:?}",
                start.elapsed()
            );
            assert_eq!(parsed.str_field("prelude").map(str::len), Some(body.len()));
        }
    }
}
