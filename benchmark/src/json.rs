//! A minimal JSON reader (no registry access, so no serde): enough for
//! `BENCHMARK.json`, the result lines of child runs, and span files.

use std::collections::BTreeMap;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
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
    /// An object (sorted by key; duplicate keys are a parse error).
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Parses one JSON document.
    ///
    /// # Errors
    ///
    /// A message naming the byte offset of the first problem.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { s: text.as_bytes(), at: 0 };
        let v = p.value()?;
        p.ws();
        if p.at != p.s.len() {
            return Err(format!("trailing bytes at offset {}", p.at));
        }
        Ok(v)
    }

    /// Member `key` of an object (`None` for other values).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The elements of an array (empty for other values).
    pub fn items(&self) -> &[Json] {
        match self {
            Json::Arr(v) => v,
            _ => &[],
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
}

/// `s` as a JSON string literal.
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
    s: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.at < self.s.len() && self.s[self.at].is_ascii_whitespace() {
            self.at += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        if self.s[self.at..].starts_with(lit.as_bytes()) {
            self.at += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        let Some(&c) = self.s.get(self.at) else {
            return Err("unexpected end of input".into());
        };
        match c {
            b'n' if self.eat("null") => Ok(Json::Null),
            b't' if self.eat("true") => Ok(Json::Bool(true)),
            b'f' if self.eat("false") => Ok(Json::Bool(false)),
            b'"' => self.string().map(Json::Str),
            b'[' => {
                self.at += 1;
                let mut items = Vec::new();
                self.ws();
                if self.eat("]") {
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.ws();
                    if self.eat("]") {
                        return Ok(Json::Arr(items));
                    }
                    if !self.eat(",") {
                        return Err(format!("expected ',' or ']' at offset {}", self.at));
                    }
                }
            }
            b'{' => {
                self.at += 1;
                let mut members = BTreeMap::new();
                self.ws();
                if self.eat("}") {
                    return Ok(Json::Obj(members));
                }
                loop {
                    self.ws();
                    let key = self.string()?;
                    self.ws();
                    if !self.eat(":") {
                        return Err(format!("expected ':' at offset {}", self.at));
                    }
                    let v = self.value()?;
                    if members.insert(key.clone(), v).is_some() {
                        return Err(format!("duplicate key {key:?}"));
                    }
                    self.ws();
                    if self.eat("}") {
                        return Ok(Json::Obj(members));
                    }
                    if !self.eat(",") {
                        return Err(format!("expected ',' or '}}' at offset {}", self.at));
                    }
                }
            }
            b'-' | b'0'..=b'9' => {
                let start = self.at;
                while self
                    .s
                    .get(self.at)
                    .is_some_and(|c| matches!(c, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'))
                {
                    self.at += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.at]).expect("ascii digits");
                text.parse().map(Json::Num).map_err(|_| format!("bad number at offset {start}"))
            }
            _ => Err(format!("unexpected byte at offset {}", self.at)),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat("\"") {
            return Err(format!("expected string at offset {}", self.at));
        }
        let mut out = Vec::new();
        loop {
            let Some(&c) = self.s.get(self.at) else {
                return Err("unterminated string".into());
            };
            self.at += 1;
            match c {
                b'"' => return String::from_utf8(out).map_err(|_| "string is not utf-8".into()),
                b'\\' => {
                    let Some(&e) = self.s.get(self.at) else {
                        return Err("unterminated escape".into());
                    };
                    self.at += 1;
                    match e {
                        b'"' | b'\\' | b'/' => out.push(e),
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        b'u' => {
                            let hex = self
                                .s
                                .get(self.at..self.at + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| format!("bad \\u escape at offset {}", self.at))?;
                            self.at += 4;
                            out.extend_from_slice(hex.encode_utf8(&mut [0; 4]).as_bytes());
                        }
                        _ => return Err(format!("unknown escape at offset {}", self.at - 1)),
                    }
                }
                c => out.push(c),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_the_shapes_the_benchmark_uses() {
        let v = Json::parse(r#" {"a": [1, -2.5e3, "x\"y\n"], "b": {"c": true, "d": null}} "#)
            .expect("parses");
        assert_eq!(v.get("a").unwrap().items()[1].as_f64(), Some(-2500.0));
        assert_eq!(v.get("a").unwrap().items()[2].as_str(), Some("x\"y\n"));
        assert_eq!(v.get("b").unwrap().get("c"), Some(&Json::Bool(true)));
        assert_eq!(Json::parse(&quote("x\"y\n\\")).unwrap().as_str(), Some("x\"y\n\\"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,]", "{\"a\":1,\"a\":2}", "tru", "1 2", "\"abc"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }
}
