//! Std-only JSON for the metrics pipeline: [`JsonWriter`], the one
//! escaping writer behind the report, the series stream and the trace
//! export, and [`JsonValue`], the recursive-descent reader the
//! round-trip tests, `metrics_check` and the repo benchmark parse them
//! back with.

use std::fmt::{Display, Write as _};

/// Append-only writer of compact JSON. It places the commas and escapes
/// the strings; the caller supplies the shape (`open`/`close` must
/// balance, and inside an object every value follows a `key`).
pub(crate) struct JsonWriter {
    out: String,
    /// The next key or value must be preceded by a comma.
    comma: bool,
}

impl JsonWriter {
    pub(crate) fn with_capacity(bytes: usize) -> Self {
        JsonWriter {
            out: String::with_capacity(bytes),
            comma: false,
        }
    }

    pub(crate) fn finish(self) -> String {
        self.out
    }

    fn separate(&mut self) {
        if self.comma {
            self.out.push(',');
        }
    }

    fn quoted(&mut self, s: &str) {
        self.out.push('"');
        for c in s.chars() {
            match c {
                '"' => self.out.push_str("\\\""),
                '\\' => self.out.push_str("\\\\"),
                '\n' => self.out.push_str("\\n"),
                '\r' => self.out.push_str("\\r"),
                '\t' => self.out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(self.out, "\\u{:04x}", c as u32);
                }
                c => self.out.push(c),
            }
        }
        self.out.push('"');
    }

    /// An object key; the value written next belongs to it.
    pub(crate) fn key(&mut self, k: &str) -> &mut Self {
        self.separate();
        self.quoted(k);
        self.out.push(':');
        self.comma = false;
        self
    }

    /// A bare token: a number, or text that is already JSON.
    pub(crate) fn val(&mut self, v: impl Display) -> &mut Self {
        self.separate();
        let _ = write!(self.out, "{v}");
        self.comma = true;
        self
    }

    /// A string value, quoted and escaped.
    pub(crate) fn str(&mut self, s: &str) -> &mut Self {
        self.separate();
        self.quoted(s);
        self.comma = true;
        self
    }

    /// Opens an object (`'{'`) or array (`'['`).
    pub(crate) fn open(&mut self, bracket: char) -> &mut Self {
        self.separate();
        self.out.push(bracket);
        self.comma = false;
        self
    }

    /// Closes the innermost object (`'}'`) or array (`']'`).
    pub(crate) fn close(&mut self, bracket: char) -> &mut Self {
        self.out.push(bracket);
        self.comma = true;
        self
    }

    /// `"k":v` for a bare token `v`.
    pub(crate) fn field(&mut self, k: &str, v: impl Display) -> &mut Self {
        self.key(k).val(v)
    }

    /// `"k":"s"`.
    pub(crate) fn field_str(&mut self, k: &str, s: &str) -> &mut Self {
        self.key(k).str(s)
    }

    /// `"k":[v,v,…]` of bare tokens.
    pub(crate) fn field_arr<T: Display>(
        &mut self,
        k: &str,
        items: impl IntoIterator<Item = T>,
    ) -> &mut Self {
        self.key(k).open('[');
        for v in items {
            self.val(v);
        }
        self.close(']')
    }
}

/// Formats an `f64` as a JSON number token (never `NaN`/`inf`, which
/// JSON forbids — non-finite values degrade to 0).
pub(crate) fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.6}")
    } else {
        "0.0".to_string()
    }
}

/// Containers a document may nest before [`JsonValue::parse`] refuses
/// it. Reports nest four deep and traces three; the bound only keeps a
/// corrupted file (`[[[[…`) from overflowing the parser's stack.
const MAX_DEPTH: usize = 128;

/// A parsed JSON value — the readback half of the metrics pipeline,
/// used by round-trip tests and the `metrics_check` binary. Minimal by
/// design: numbers are `f64` (exact for every counter below 2⁵³).
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<JsonValue>),
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Parses a complete JSON document.
    pub fn parse(text: &str) -> Result<JsonValue, String> {
        let mut p = Parser {
            text,
            b: text.as_bytes(),
            i: 0,
            depth: 0,
        };
        p.ws();
        let v = p.value()?;
        p.ws();
        if p.i != p.b.len() {
            return Err(format!("trailing garbage at byte {}", p.i));
        }
        Ok(v)
    }

    /// Object member lookup.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(x) => Some(*x),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(x) if *x >= 0.0 && x.fract() == 0.0 => Some(*x as u64),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(v) => Some(v),
            _ => None,
        }
    }
}

struct Parser<'a> {
    text: &'a str,
    b: &'a [u8],
    i: usize,
    /// Containers currently open around `i`.
    depth: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.b.len() && matches!(self.b[self.i], b' ' | b'\t' | b'\n' | b'\r') {
            self.i += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.i < self.b.len() && self.b[self.i] == c {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.i))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.b.get(self.i) {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(_) => self.number(),
            None => Err("unexpected end of input".into()),
        }
    }

    /// Parses one container, refusing to descend past [`MAX_DEPTH`].
    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<JsonValue, String>,
    ) -> Result<JsonValue, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.i
            ));
        }
        self.depth += 1;
        let v = container(self);
        self.depth -= 1;
        v
    }

    fn literal(&mut self, lit: &str, v: JsonValue) -> Result<JsonValue, String> {
        if self.b[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.i))
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.i;
        while self.i < self.b.len()
            && matches!(
                self.b[self.i],
                b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'
            )
        {
            self.i += 1;
        }
        self.text[start..self.i]
            .parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| format!("bad number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.b.get(self.i) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    match self.b.get(self.i) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .b
                                .get(self.i + 1..self.i + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.i))?;
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                            self.i += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.i)),
                    }
                    self.i += 1;
                }
                Some(_) => {
                    // `i` only ever steps over whole scalars (ASCII
                    // structure bytes or a `len_utf8`), so it is on a
                    // char boundary of `text`.
                    let ch = self.text[self.i..]
                        .chars()
                        .next()
                        .expect("a byte remains at i");
                    out.push(ch);
                    self.i += ch.len_utf8();
                }
            }
        }
    }

    /// Parses `open close` or `open item (, item)* close`, handing
    /// each item's position to `item`.
    fn sequence(
        &mut self,
        (open, close): (u8, u8),
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.expect(open)?;
        self.ws();
        if self.b.get(self.i) == Some(&close) {
            self.i += 1;
            return Ok(());
        }
        loop {
            self.ws();
            item(self)?;
            self.ws();
            match self.b.get(self.i) {
                Some(b',') => self.i += 1,
                Some(&c) if c == close => {
                    self.i += 1;
                    return Ok(());
                }
                _ => {
                    let close = close as char;
                    return Err(format!("expected ',' or '{close}' at byte {}", self.i));
                }
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        let mut items = Vec::new();
        self.sequence((b'[', b']'), |p| {
            items.push(p.value()?);
            Ok(())
        })?;
        Ok(JsonValue::Arr(items))
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        let mut members = Vec::new();
        self.sequence((b'{', b'}'), |p| {
            let key = p.string()?;
            p.ws();
            p.expect(b':')?;
            p.ws();
            members.push((key, p.value()?));
            Ok(())
        })?;
        Ok(JsonValue::Obj(members))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_places_commas_and_escapes() {
        let mut w = JsonWriter::with_capacity(64);
        w.open('{').field("a", 1).field_str("b", "x\"y\\z\n\u{1}");
        w.field_arr("c", [1.5, 2.0]).key("d").open('{').close('}');
        w.key("e").open('[').open('[').val(0).val(7).close(']');
        w.str("s").close(']').close('}');
        let text = w.finish();
        assert_eq!(
            text,
            r#"{"a":1,"b":"x\"y\\z\n\u0001","c":[1.5,2],"d":{},"e":[[0,7],"s"]}"#
        );
        let v = JsonValue::parse(&text).expect("writer output parses");
        assert_eq!(v.get("b").unwrap().as_str(), Some("x\"y\\z\n\u{1}"));
    }

    #[test]
    fn json_parser_round_trips_values() {
        let text = r#"{"a":1,"b":[1,2.5,-3],"c":{"d":"x\ny","e":true,"f":null},"g":"é"}"#;
        let v = JsonValue::parse(text).unwrap();
        assert_eq!(v.get("a").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("b").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("b").unwrap().as_arr().unwrap()[1].as_f64(), Some(2.5));
        assert_eq!(v.get("c").unwrap().get("d").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("c").unwrap().get("e"), Some(&JsonValue::Bool(true)));
        assert_eq!(v.get("c").unwrap().get("f"), Some(&JsonValue::Null));
        assert_eq!(v.get("g").unwrap().as_str(), Some("é"));
        assert!(JsonValue::parse("{").is_err());
        assert!(JsonValue::parse("{}x").is_err());
        assert!(JsonValue::parse("[1,]").is_err());
    }

    #[test]
    fn parser_bounds_nesting_instead_of_overflowing_the_stack() {
        let at_bound = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(JsonValue::parse(&at_bound).is_ok());
        let err = JsonValue::parse(&"[".repeat(200_000)).expect_err("too deep");
        assert!(err.contains("nesting deeper than 128"), "{err}");
        let mixed = r#"{"a":["#.repeat(100_000);
        assert!(JsonValue::parse(&mixed).is_err());
    }
}
