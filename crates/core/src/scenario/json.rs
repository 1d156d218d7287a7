//! The workspace's one JSON-line codec: an object [`Writer`] and a
//! [`parse`]r, sharing one string escape.
//!
//! Every JSON line the workspace prints or reads goes through here: run
//! reports ([`super::RunReport::to_json`]), the sweep's worker and
//! manifest lines, and model-check verdicts and traces. The workspace has
//! no serde, so both halves are scope-matched to those records:
//!
//! - Strings escape `"` and `\`, write every control character as
//!   `\u00XX`, and copy everything else verbatim — so a line never tears
//!   and never holds a raw control byte. On printable ASCII this is
//!   byte-for-byte what Rust's `{:?}` writes, so run-report lines and
//!   manifests archived by earlier builds (which used `{:?}`) still match
//!   and still resume.
//! - Bare tokens (numbers, `true`, `false`, `null`, or an already
//!   rendered JSON value) are written with their [`Display`] form, so a
//!   caller picks its own float precision with `format_args!`.
//! - The reader keeps object keys in source order and numbers as their
//!   source text (so `u64` fields never round through `f64`), and it
//!   accepts the non-standard float tokens `{:.6}` can produce (`NaN`,
//!   `inf`, `-inf`). Anything malformed, truncated or forged parses to
//!   `None`, never a panic.
//!
//! ```
//! use byzclock_core::scenario::json;
//!
//! let mut w = json::Writer::object();
//! w.key("msg").str("tab\there").key("n").raw(3);
//! w.key("xs").open('[').raw(1).raw("null").close(']');
//! let line = w.finish();
//! assert_eq!(line, r#"{"msg":"tab\u0009here","n":3,"xs":[1,null]}"#);
//!
//! let v = json::parse(&line).unwrap();
//! assert_eq!(v.get("msg").and_then(json::Value::as_str), Some("tab\there"));
//! assert_eq!(v.get("n").and_then(json::Value::as_u64), Some(3));
//! ```

use std::fmt::{Display, Write as _};

/// Builds one JSON object into a string, placing the commas.
///
/// Values follow [`Writer::key`] inside objects and follow each other
/// inside arrays; [`Writer::open`] and [`Writer::close`] nest.
#[derive(Debug)]
pub struct Writer {
    out: String,
    /// Nothing written yet at this nesting level (no comma due).
    fresh: bool,
}

impl Writer {
    /// A writer with the outer object already open.
    pub fn object() -> Writer {
        Writer {
            out: String::from("{"),
            fresh: true,
        }
    }

    fn comma(&mut self) {
        if !self.fresh {
            self.out.push(',');
        }
        self.fresh = false;
    }

    /// Writes `"key":`; the next call writes its value.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.comma();
        escape_into(&mut self.out, key);
        self.out.push(':');
        self.fresh = true;
        self
    }

    /// Writes a string value.
    pub fn str(&mut self, value: &str) -> &mut Self {
        self.comma();
        escape_into(&mut self.out, value);
        self
    }

    /// Writes a bare token verbatim: a number, `true`/`false`, `null`, or
    /// an already-rendered JSON value.
    pub fn raw(&mut self, value: impl Display) -> &mut Self {
        self.comma();
        let _ = write!(self.out, "{value}");
        self
    }

    /// Writes `value`, or `null` for `None`.
    pub fn opt(&mut self, value: Option<impl Display>) -> &mut Self {
        match value {
            Some(v) => self.raw(v),
            None => self.raw("null"),
        }
    }

    /// Opens a nested object (`'{'`) or array (`'['`).
    pub fn open(&mut self, bracket: char) -> &mut Self {
        self.comma();
        self.out.push(bracket);
        self.fresh = true;
        self
    }

    /// Closes the innermost nested object (`'}'`) or array (`']'`).
    pub fn close(&mut self, bracket: char) -> &mut Self {
        self.out.push(bracket);
        self.fresh = false;
        self
    }

    /// Closes the outer object and returns the line.
    pub fn finish(mut self) -> String {
        self.out.push('}');
        self.out
    }
}

/// The one string escape: `"` and `\` backslash-escaped, every control
/// character as `\u00XX`, everything else verbatim.
fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    let mut start = 0;
    for (i, c) in s.char_indices() {
        if c == '"' || c == '\\' || c.is_control() {
            out.push_str(&s[start..i]);
            if c.is_control() {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            } else {
                out.push('\\');
                out.push(c);
            }
            start = i + c.len_utf8();
        }
    }
    out.push_str(&s[start..]);
    out.push('"');
}

/// One parsed JSON value.
#[derive(Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number, kept as its source text.
    Num(String),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in source key order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// The value under `key`, if this is an object that has it.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_obj()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// A number that parses as `u64`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// A number, as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// A boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// A string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// An array's items.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// An object's `(key, value)` pairs, in source order.
    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }
}

/// Parses one complete JSON value; trailing garbage fails the parse.
pub fn parse(s: &str) -> Option<Value> {
    let mut p = Parser {
        b: s.as_bytes(),
        i: 0,
        depth: 0,
    };
    let v = p.value()?;
    p.ws();
    (p.i == p.b.len()).then_some(v)
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
    depth: u32,
}

/// Forged input cannot allocate unbounded recursion frames.
const MAX_DEPTH: u32 = 64;

impl Parser<'_> {
    fn ws(&mut self) {
        while matches!(self.b.get(self.i), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Option<()> {
        self.ws();
        if self.b.get(self.i) == Some(&c) {
            self.i += 1;
            Some(())
        } else {
            None
        }
    }

    fn lit(&mut self, word: &str, v: Value) -> Option<Value> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Some(v)
        } else {
            None
        }
    }

    fn value(&mut self) -> Option<Value> {
        if self.depth >= MAX_DEPTH {
            return None;
        }
        self.depth += 1;
        self.ws();
        let v = match self.b.get(self.i)? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => self.string().map(Value::Str),
            b'n' => self.lit("null", Value::Null),
            b't' => self.lit("true", Value::Bool(true)),
            b'f' => self.lit("false", Value::Bool(false)),
            _ => self.number(),
        };
        self.depth -= 1;
        v
    }

    /// The comma-separated items of an object or array, the opening
    /// bracket under the cursor; `item` parses one.
    fn items(&mut self, close: u8, mut item: impl FnMut(&mut Self) -> Option<()>) -> Option<()> {
        self.i += 1;
        if self.eat(close).is_some() {
            return Some(());
        }
        loop {
            item(self)?;
            self.ws();
            match *self.b.get(self.i)? {
                b',' => self.i += 1,
                c if c == close => {
                    self.i += 1;
                    return Some(());
                }
                _ => return None,
            }
        }
    }

    fn object(&mut self) -> Option<Value> {
        let mut pairs = Vec::new();
        self.items(b'}', |p| {
            p.ws();
            let key = p.string()?;
            p.eat(b':')?;
            pairs.push((key, p.value()?));
            Some(())
        })?;
        Some(Value::Obj(pairs))
    }

    fn array(&mut self) -> Option<Value> {
        let mut items = Vec::new();
        self.items(b']', |p| {
            items.push(p.value()?);
            Some(())
        })?;
        Some(Value::Arr(items))
    }

    /// A string with the JSON escapes (`\uXXXX` without surrogate
    /// pairs: the writer never emits them).
    fn string(&mut self) -> Option<String> {
        if self.b.get(self.i) != Some(&b'"') {
            return None;
        }
        self.i += 1;
        let mut out = Vec::new();
        loop {
            let c = *self.b.get(self.i)?;
            self.i += 1;
            match c {
                b'"' => return String::from_utf8(out).ok(),
                b'\\' => {
                    let e = *self.b.get(self.i)?;
                    self.i += 1;
                    let c = match e {
                        b'"' | b'\\' | b'/' => char::from(e),
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'u' => {
                            let hex = self.b.get(self.i..self.i + 4)?;
                            self.i += 4;
                            if !hex.iter().all(u8::is_ascii_hexdigit) {
                                return None;
                            }
                            let code = std::str::from_utf8(hex).ok()?;
                            char::from_u32(u32::from_str_radix(code, 16).ok()?)?
                        }
                        _ => return None,
                    };
                    let mut buf = [0u8; 4];
                    out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
                }
                c => out.push(c),
            }
        }
    }

    fn number(&mut self) -> Option<Value> {
        let start = self.i;
        while matches!(
            self.b.get(self.i),
            Some(c) if c.is_ascii_alphanumeric() || matches!(c, b'+' | b'-' | b'.')
        ) {
            self.i += 1;
        }
        let tok = std::str::from_utf8(&self.b[start..self.i]).ok()?;
        // Rust's f64 parser already accepts `inf`, `-inf`, and `NaN` —
        // exactly the non-standard tokens `{:.6}` can emit.
        tok.parse::<f64>().ok()?;
        Some(Value::Num(tok.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn write_one(s: &str) -> String {
        let mut w = Writer::object();
        w.key("s").str(s);
        w.finish()
    }

    #[test]
    fn printable_ascii_escapes_exactly_like_debug() {
        // The property that keeps every run-report line byte-identical to
        // the `{:?}`-rendered lines of earlier builds.
        let ascii: String = (0x20u8..0x7f).map(char::from).collect();
        assert_eq!(write_one(&ascii), format!("{{\"s\":{ascii:?}}}"));
    }

    #[test]
    fn control_characters_are_u00xx_escapes() {
        assert_eq!(write_one("a\tb\n"), r#"{"s":"a\u0009b\u000a"}"#);
        assert_eq!(write_one("\u{7f}\u{85}"), r#"{"s":"\u007f\u0085"}"#);
        assert_eq!(
            write_one("zero\u{200b}width"),
            "{\"s\":\"zero\u{200b}width\"}"
        );
    }

    #[test]
    fn nesting_places_commas() {
        let mut w = Writer::object();
        w.key("a").open('{').close('}');
        w.key("b").open('[').open('[').raw(1).str("x").close(']');
        w.open('[').close(']').close(']').key("c").opt(None::<u8>);
        let line = w.finish();
        assert_eq!(line, r#"{"a":{},"b":[[1,"x"],[]],"c":null}"#);
        assert!(parse(&line).is_some());
        assert_eq!(Writer::object().finish(), "{}");
    }

    #[test]
    fn reads_standard_escapes_and_literals() {
        let v =
            parse(r#" {"s":"\"\\\/\b\f\n\r\tAé","t":true,"f":false,"n":null} "#).expect("parses");
        assert_eq!(
            v.get("s").and_then(Value::as_str),
            Some("\"\\/\u{8}\u{c}\n\r\tA\u{e9}")
        );
        assert_eq!(v.get("t").and_then(Value::as_bool), Some(true));
        assert_eq!(v.get("f").and_then(Value::as_bool), Some(false));
        assert_eq!(v.get("n"), Some(&Value::Null));
        // Rust's `\u{…}` and `\'` are not JSON.
        for bad in [
            r#""\u{41}""#,
            r#""\u+041""#,
            r#""\'""#,
            r#""\x""#,
            r#""\u00""#,
            "tru",
            "[1,]",
        ] {
            assert!(parse(bad).is_none(), "`{bad}` parsed");
        }
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(parse(&deep).is_none(), "depth is bounded");
    }

    proptest! {
        /// `parse ∘ write` is the identity on every string — control
        /// characters, quotes, backslash runs, zero-width and combining
        /// marks, astral code points — and the line holds no raw control
        /// byte and no Rust-only `\u{…}` escape.
        #[test]
        fn strings_round_trip_as_valid_json(
            chars in proptest::collection::vec(
                prop_oneof![
                    proptest::sample::select(vec![
                        '\t', '\r', '\n', '\0', '\'', '"', '\\', 'u', '{', '}', '\u{7f}',
                        '\u{85}', '\u{200b}', '\u{304}', '\u{2028}', '\u{e9}', '\u{1f600}',
                    ]),
                    (0u32..0x11_0000).prop_map(|c| char::from_u32(c).unwrap_or('\u{fffd}')),
                ],
                0..24,
            ),
        ) {
            let s: String = chars.into_iter().collect();
            let line = write_one(&s);
            prop_assert!(!line.bytes().any(|b| b < 0x20 || b == 0x7f), "{line:?}");
            // Escaped backslashes aside, no Rust-style `\u{…}` escape.
            prop_assert!(!line.replace("\\\\", "").contains("\\u{"), "{line:?}");
            let v = parse(&line);
            prop_assert_eq!(v.as_ref().and_then(|v| v.get("s")).and_then(Value::as_str), Some(s.as_str()));
        }
    }
}
