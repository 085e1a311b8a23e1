//! Just enough JSON for the result line: `selfcheck` and the all-workloads
//! `run` read back what their child processes print, in the same format
//! an outside driver consumes. No escapes beyond `\"` and `\\` are ever
//! written, so none beyond the standard single-character ones are read.

use std::collections::BTreeMap;

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    #[cfg(test)]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    #[cfg(test)]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Parses one JSON document; `None` on any syntax error or trailing text.
pub fn parse(text: &str) -> Option<Json> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let value = p.value()?;
    p.skip_ws();
    (p.pos == p.bytes.len()).then_some(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(u8::is_ascii_whitespace)
        {
            self.pos += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> Option<()> {
        self.skip_ws();
        (self.bytes.get(self.pos) == Some(&byte)).then(|| self.pos += 1)
    }

    fn literal(&mut self, word: &str, value: Json) -> Option<Json> {
        self.bytes[self.pos..]
            .starts_with(word.as_bytes())
            .then(|| {
                self.pos += word.len();
                value
            })
    }

    fn value(&mut self) -> Option<Json> {
        self.skip_ws();
        match *self.bytes.get(self.pos)? {
            b'{' => {
                self.pos += 1;
                let mut map = BTreeMap::new();
                if self.eat(b'}').is_some() {
                    return Some(Json::Obj(map));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.eat(b':')?;
                    map.insert(key, self.value()?);
                    if self.eat(b',').is_none() {
                        self.eat(b'}')?;
                        return Some(Json::Obj(map));
                    }
                }
            }
            b'[' => {
                self.pos += 1;
                let mut items = Vec::new();
                if self.eat(b']').is_some() {
                    return Some(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    if self.eat(b',').is_none() {
                        self.eat(b']')?;
                        return Some(Json::Arr(items));
                    }
                }
            }
            b'"' => self.string().map(Json::Str),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            b'n' => self.literal("null", Json::Null),
            _ => {
                let start = self.pos;
                while self
                    .bytes
                    .get(self.pos)
                    .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
                {
                    self.pos += 1;
                }
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .ok()?
                    .parse()
                    .ok()
                    .map(Json::Num)
            }
        }
    }

    fn string(&mut self) -> Option<String> {
        if self.bytes.get(self.pos) != Some(&b'"') {
            return None;
        }
        self.pos += 1;
        let mut out = Vec::new();
        loop {
            let byte = *self.bytes.get(self.pos)?;
            self.pos += 1;
            match byte {
                b'"' => return String::from_utf8(out).ok(),
                b'\\' => {
                    let escaped = *self.bytes.get(self.pos)?;
                    self.pos += 1;
                    out.push(match escaped {
                        b'n' => b'\n',
                        b't' => b'\t',
                        b'r' => b'\r',
                        b'"' | b'\\' | b'/' => escaped,
                        _ => return None,
                    });
                }
                _ => out.push(byte),
            }
        }
    }
}

/// `text` as a JSON string literal.
pub fn quote(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_result_line() {
        let line = r#"{"correct": true, "attempted": 1000, "failed": 0,
            "metrics": {"latency_ms": {"value": 1.2034, "unit": "ms"},
                        "neg": {"value": -2.5e-3, "unit": "1/s"}}, "tags": ["a", null]}"#;
        let doc = parse(line).expect("valid");
        assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(doc.get("attempted").and_then(Json::as_f64), Some(1000.0));
        let m = doc.get("metrics").unwrap();
        assert_eq!(
            m.get("latency_ms")
                .and_then(|v| v.get("value"))
                .and_then(Json::as_f64),
            Some(1.2034)
        );
        assert_eq!(
            m.get("neg")
                .and_then(|v| v.get("value"))
                .and_then(Json::as_f64),
            Some(-0.0025)
        );
        assert_eq!(
            m.get("neg")
                .and_then(|v| v.get("unit"))
                .and_then(Json::as_str),
            Some("1/s")
        );
        assert_eq!(
            doc.get("tags").and_then(Json::as_arr).map(<[Json]>::len),
            Some(2)
        );
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "{\"a\":1,}",
            "[1 2]",
            "{} x",
            "\"open",
            "tru",
        ] {
            assert_eq!(parse(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn quote_round_trips() {
        let text = "a \"quoted\" \\ line\nbreak";
        assert_eq!(parse(&quote(text)), Some(Json::Str(text.to_string())));
    }
}
