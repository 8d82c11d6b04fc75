//! The workspace's one JSON reader and one string escaper.
//!
//! Every JSON document the reproduction reads goes through [`Json::parse`]:
//! serve requests, device descriptors, bench trajectories under
//! `--check-bench`, and np-obs logs under `npcc obs-strip` (via
//! `value_end`). Every string value a writer takes from data goes through
//! [`escape`] or [`quote`]. Writers keep their own field order and layout,
//! because goldens, baselines and device digests pin those bytes; what they
//! share is string quoting.
//!
//! Numbers keep their source text. Integer fields therefore read back
//! exactly, with no trip through `f64`, and typed readers can reject `8.0`
//! where a count is due. No streaming, no borrowed slices.

/// One parsed JSON value. Objects preserve key order and duplicate keys
/// (no hashing: the documents read here are small).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// A number exactly as written in the source.
    Num(String),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse a complete JSON document; trailing non-whitespace is an error.
    pub fn parse(src: &str) -> Result<Json, String> {
        let mut p = Parser { src, pos: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != src.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Object member lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric value as u64, when it is a non-negative whole number.
    /// Integer literals convert exactly; `4.0` and `1e3` are accepted too.
    pub fn as_u64(&self) -> Option<u64> {
        let Json::Num(text) = self else { return None };
        text.parse().ok().or_else(|| {
            let n: f64 = text.parse().ok()?;
            (n >= 0.0 && n.fract() == 0.0 && n <= u64::MAX as f64).then_some(n as u64)
        })
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(text) => text.parse().ok(),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Byte offset one past the JSON value that starts at byte `at` of `src`,
/// or `None` when no well-formed value starts there.
pub(crate) fn value_end(src: &str, at: usize) -> Option<usize> {
    let mut p = Parser { src, pos: at };
    p.value().ok().map(|_| p.pos)
}

/// Escape `s` as the *contents* of a JSON string literal (no surrounding
/// quotes). Control characters use `\u00XX`.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

/// `s` as a complete JSON string literal, quotes included.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    escape_into(&mut out, s);
    out.push('"');
    out
}

fn escape_into(out: &mut String, s: &str) {
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
}

struct Parser<'a> {
    src: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.peek() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.src.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b) => Err(format!("unexpected {:?} at byte {}", b as char, self.pos)),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            members.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
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
                                .src
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            // Surrogate pairs are not needed by any document
                            // read here; reject rather than mis-decode.
                            out.push(
                                char::from_u32(code)
                                    .ok_or(format!("\\u{code:04x} is not a scalar value"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next quote or backslash; both
                    // stops are ASCII, so the run ends on a char boundary.
                    let start = self.pos;
                    while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                        self.pos += 1;
                    }
                    out.push_str(&self.src[start..self.pos]);
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos += 1;
        }
        let text = &self.src[start..self.pos];
        match text.parse::<f64>() {
            Ok(_) => Ok(Json::Num(text.to_string())),
            Err(_) => Err(format!("bad number at byte {start}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_protocol_shaped_objects() {
        let v = Json::parse(
            r#"{"id":"r-1","kernel":"__global__ void k() {}","slave_size":4,
                "deadline_ms":250,"tune":true,"tags":[1,2.5,null,false]}"#,
        )
        .unwrap();
        assert_eq!(v.get("id").and_then(Json::as_str), Some("r-1"));
        assert_eq!(v.get("slave_size").and_then(Json::as_u64), Some(4));
        assert_eq!(v.get("deadline_ms").and_then(Json::as_u64), Some(250));
        assert_eq!(v.get("tune").and_then(Json::as_bool), Some(true));
        let Json::Arr(tags) = v.get("tags").unwrap() else { panic!() };
        assert_eq!(tags.len(), 4);
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let nasty = "line1\nline2\t\"quoted\" back\\slash \u{1} é";
        let doc = format!("{{\"s\":\"{}\"}}", escape(nasty));
        let v = Json::parse(&doc).unwrap();
        assert_eq!(v.get("s").and_then(Json::as_str), Some(nasty));
        assert_eq!(quote(nasty), format!("\"{}\"", escape(nasty)));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "{\"a\":}", "[1,]", "{\"a\" 1}", "tru", "\"x", "{} {}", "1-"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn numbers_cover_integers_floats_and_negatives() {
        let v = Json::parse("[0, -3, 2.75, 1e3, 4.0]").unwrap();
        let Json::Arr(xs) = v else { panic!() };
        assert_eq!(xs[0].as_u64(), Some(0));
        assert_eq!(xs[1].as_f64(), Some(-3.0));
        assert_eq!(xs[1].as_u64(), None, "negative numbers are not u64s");
        assert_eq!(xs[2].as_f64(), Some(2.75));
        assert_eq!(xs[2].as_u64(), None, "fractions are not u64s");
        assert_eq!(xs[3].as_u64(), Some(1000));
        assert_eq!(xs[4].as_u64(), Some(4));
        assert_eq!(xs[4], Json::Num("4.0".to_string()), "source text is kept");
    }

    #[test]
    fn integers_above_2_pow_53_read_back_exactly() {
        let v = Json::parse("{\"n\":9007199254740993}").unwrap();
        assert_eq!(v.get("n").and_then(Json::as_u64), Some(9_007_199_254_740_993));
        let max = Json::parse(&u64::MAX.to_string()).unwrap();
        assert_eq!(max.as_u64(), Some(u64::MAX));
    }

    #[test]
    fn value_end_spans_exactly_one_value() {
        let src = "{\"a\":{\"b\":[1,\"}\"]},\"c\":\"x\\\"y\",\"d\":-2.5e3,\"e\":true}";
        let after = |key: &str| src.find(&format!("\"{key}\":")).unwrap() + key.len() + 3;
        assert_eq!(&src[after("a")..value_end(src, after("a")).unwrap()], "{\"b\":[1,\"}\"]}");
        assert_eq!(&src[after("c")..value_end(src, after("c")).unwrap()], "\"x\\\"y\"");
        assert_eq!(&src[after("d")..value_end(src, after("d")).unwrap()], "-2.5e3");
        assert_eq!(&src[after("e")..value_end(src, after("e")).unwrap()], "true");
        assert_eq!(value_end("{\"a\":", 5), None);
        assert_eq!(value_end("[1,", 0), None);
    }
}
