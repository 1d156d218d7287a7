//! A small JSON reader for the benchmark's own files (`BENCHMARK.json`,
//! result files, a child run's result line). The workspace has no serde.

/// One parsed JSON value. Objects keep their key order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }
}

/// Parses one complete JSON value; anything malformed, or anything after
/// the value, is `None`.
pub fn parse(s: &str) -> Option<Json> {
    let mut p = Parser {
        b: s.as_bytes(),
        i: 0,
    };
    let v = p.value(0)?;
    p.ws();
    (p.i == p.b.len()).then_some(v)
}

/// Renders `s` as a JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while matches!(self.b.get(self.i), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn eat(&mut self, word: &str) -> Option<()> {
        self.b[self.i..].starts_with(word.as_bytes()).then(|| {
            self.i += word.len();
        })
    }

    fn value(&mut self, depth: usize) -> Option<Json> {
        if depth > 32 {
            return None;
        }
        self.ws();
        match *self.b.get(self.i)? {
            b'{' => {
                self.i += 1;
                let mut pairs = Vec::new();
                loop {
                    self.ws();
                    if pairs.is_empty() && self.b.get(self.i) == Some(&b'}') {
                        self.i += 1;
                        return Some(Json::Obj(pairs));
                    }
                    let key = self.string()?;
                    self.ws();
                    self.eat(":")?;
                    pairs.push((key, self.value(depth + 1)?));
                    self.ws();
                    match *self.b.get(self.i)? {
                        b',' => self.i += 1,
                        b'}' => {
                            self.i += 1;
                            return Some(Json::Obj(pairs));
                        }
                        _ => return None,
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut items = Vec::new();
                loop {
                    self.ws();
                    if items.is_empty() && self.b.get(self.i) == Some(&b']') {
                        self.i += 1;
                        return Some(Json::Arr(items));
                    }
                    items.push(self.value(depth + 1)?);
                    self.ws();
                    match *self.b.get(self.i)? {
                        b',' => self.i += 1,
                        b']' => {
                            self.i += 1;
                            return Some(Json::Arr(items));
                        }
                        _ => return None,
                    }
                }
            }
            b'"' => self.string().map(Json::Str),
            b't' => self.eat("true").map(|()| Json::Bool(true)),
            b'f' => self.eat("false").map(|()| Json::Bool(false)),
            b'n' => self.eat("null").map(|()| Json::Null),
            _ => {
                let start = self.i;
                while matches!(
                    self.b.get(self.i),
                    Some(c) if c.is_ascii_digit() || matches!(c, b'+' | b'-' | b'.' | b'e' | b'E')
                ) {
                    self.i += 1;
                }
                let token = std::str::from_utf8(&self.b[start..self.i]).ok()?;
                token.parse().ok().map(Json::Num)
            }
        }
    }

    fn string(&mut self) -> Option<String> {
        self.ws();
        if self.b.get(self.i) != Some(&b'"') {
            return None;
        }
        self.i += 1;
        let mut out = Vec::new();
        loop {
            match *self.b.get(self.i)? {
                b'"' => {
                    self.i += 1;
                    return String::from_utf8(out).ok();
                }
                b'\\' => {
                    self.i += 1;
                    let c = match *self.b.get(self.i)? {
                        b'n' => '\n',
                        b't' => '\t',
                        b'r' => '\r',
                        b'u' => {
                            let hex = self.b.get(self.i + 1..self.i + 5)?;
                            self.i += 4;
                            let code = u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16);
                            char::from_u32(code.ok()?)?
                        }
                        c @ (b'"' | b'\\' | b'/') => c as char,
                        _ => return None,
                    };
                    self.i += 1;
                    let mut buf = [0u8; 4];
                    out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
                }
                c => {
                    out.push(c);
                    self.i += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_what_the_benchmark_writes() {
        let v = parse(
            r#"{"correct": true, "attempted": 3, "metrics": {"a.b": {"value": 1.5e-3, "unit": "ms"}},
               "list": [1, -2, "x\"yA"], "none": null}"#,
        )
        .unwrap();
        assert_eq!(v.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(v.get("attempted").and_then(Json::as_f64), Some(3.0));
        let metric = v.get("metrics").and_then(|m| m.get("a.b")).unwrap();
        assert_eq!(metric.get("value").and_then(Json::as_f64), Some(0.0015));
        assert_eq!(metric.get("unit").and_then(Json::as_str), Some("ms"));
        let list = v.get("list").and_then(Json::as_arr).unwrap();
        assert_eq!(list[2].as_str(), Some("x\"yA"));
        assert_eq!(v.get("none"), Some(&Json::Null));
        assert_eq!(
            parse(&quote("a\"b\\c\n")).unwrap().as_str(),
            Some("a\"b\\c\n")
        );
    }

    #[test]
    fn refuses_malformed_input() {
        for bad in ["", "{", "{\"a\":}", "[1,]", "{\"a\":1} x", "tru", "\"open"] {
            assert!(parse(bad).is_none(), "`{bad}` parsed");
        }
    }
}
