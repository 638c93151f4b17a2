//! The workspace's one JSON codec: [`escape`] and [`number`] for the
//! writers, which lay out their fixed shapes with `format!`, and
//! [`parse`] for every reader. A number keeps its token text, so
//! [`Value::as_u64`] reads `u64::MAX` and trace ids exactly; nesting
//! deeper than [`MAX_DEPTH`] is an `Err`, never a stack overflow.

/// Deepest array/object nesting [`parse`] accepts.
pub const MAX_DEPTH: usize = 64;

/// `s` escaped for the inside of a JSON string literal: `"`, `\` and
/// the control characters; everything else is written as is.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// `v` as a JSON number (`Display`'s shortest round trip), or `null`
/// for NaN and the infinities, which JSON cannot hold.
pub fn number(v: f64) -> String {
    Some(v).filter(|v| v.is_finite()).map_or_else(|| "null".to_string(), |v| v.to_string())
}

/// A parsed JSON value. A number is its token text; an object keeps
/// its members in document order.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)]
pub enum Value {
    Null,
    Bool(bool),
    Number(String),
    String(String),
    Array(Vec<Value>),
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The member `key` of an object (the first, if repeated).
    pub fn get(&self, key: &str) -> Option<&Value> {
        let Value::Object(members) = self else { return None };
        members.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The text of a string.
    pub fn as_str(&self) -> Option<&str> {
        let Value::String(s) = self else { return None };
        Some(s)
    }

    /// The elements of an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        let Value::Array(items) = self else { return None };
        Some(items)
    }

    /// An integral number that fits a `u64`, read exactly.
    pub fn as_u64(&self) -> Option<u64> {
        self.number()
    }

    /// An integral number that fits an `i64`, read exactly.
    pub fn as_i64(&self) -> Option<i64> {
        self.number()
    }

    /// Any number, rounded to the nearest `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        self.number()
    }

    fn number<T: std::str::FromStr>(&self) -> Option<T> {
        let Value::Number(text) = self else { return None };
        text.parse().ok()
    }
}

/// Parses one JSON document; anything but whitespace after it is an
/// error.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser { text, at: 0 };
    let value = p.value(0);
    let value = value.and_then(|v| if p.peek().is_none() { Ok(v) } else { Err("trailing text") });
    value.map_err(|what| format!("JSON: {what} at byte {}", p.at))
}

struct Parser<'a> {
    text: &'a str,
    at: usize,
}

impl Parser<'_> {
    /// Skips whitespace; the next byte.
    fn peek(&mut self) -> Option<u8> {
        let rest = &self.text[self.at..];
        self.at += rest.len() - rest.trim_start_matches([' ', '\n', '\r', '\t']).len();
        self.text.as_bytes().get(self.at).copied()
    }

    /// Skips whitespace, then consumes `byte` if it comes next.
    fn eat(&mut self, byte: u8) -> bool {
        let hit = self.peek() == Some(byte);
        self.at += hit as usize;
        hit
    }

    fn value(&mut self, depth: usize) -> Result<Value, &'static str> {
        let close = match self.peek() {
            Some(b'"') => return self.string().map(Value::String),
            Some(b'[' | b'{') if depth == MAX_DEPTH => return Err("nesting too deep"),
            Some(b'[') => b']',
            Some(b'{') => b'}',
            _ => return self.scalar(),
        };
        self.at += 1;
        let (mut items, mut members) = (Vec::new(), Vec::new());
        let mut more = !self.eat(close);
        while more {
            if close == b']' {
                items.push(self.value(depth + 1)?);
            } else {
                let key = self.string()?;
                if !self.eat(b':') {
                    return Err("expected `:`");
                }
                members.push((key, self.value(depth + 1)?));
            }
            more = self.eat(b',');
            if !more && !self.eat(close) {
                return Err("expected `,` or a closing bracket");
            }
        }
        Ok(if close == b']' { Value::Array(items) } else { Value::Object(members) })
    }

    /// `null`, `true`, `false` or a number:
    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`.
    fn scalar(&mut self) -> Result<Value, &'static str> {
        let rest = &self.text[self.at..];
        let end = rest.find(|c: char| !c.is_ascii_alphanumeric() && !"+-.".contains(c));
        let token = &rest[..end.unwrap_or(rest.len())];
        let digits = |s: &str| !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit());
        let unsigned = token.strip_prefix('-').unwrap_or(token);
        let (mantissa, exp) = unsigned.split_once(['e', 'E']).unwrap_or((unsigned, "0"));
        let (int, frac) = mantissa.split_once('.').unwrap_or((mantissa, "0"));
        let exp = exp.strip_prefix(['+', '-']).unwrap_or(exp);
        let number = digits(int) && (int == "0" || !int.starts_with('0')) && digits(frac);
        let value = match token {
            "null" => Value::Null,
            "true" => Value::Bool(true),
            "false" => Value::Bool(false),
            _ if number && digits(exp) => Value::Number(token.to_string()),
            _ => return Err("expected a value"),
        };
        self.at += token.len();
        Ok(value)
    }

    /// A string literal, unescaped.
    fn string(&mut self) -> Result<String, &'static str> {
        if !self.eat(b'"') {
            return Err("expected a string");
        }
        let mut out = String::new();
        loop {
            let rest = &self.text[self.at..];
            let run = rest.find(|c: char| c == '"' || c == '\\' || c < ' ').unwrap_or(rest.len());
            out.push_str(&rest[..run]);
            self.at += run + 1;
            match rest.as_bytes().get(run) {
                Some(b'"') => return Ok(out),
                Some(b'\\') => {}
                _ => return Err("unterminated string or control character"),
            }
            self.at += 1;
            out.push(match rest.as_bytes().get(run + 1) {
                Some(&b @ (b'"' | b'\\' | b'/')) => b as char,
                Some(b'b') => '\u{8}',
                Some(b'f') => '\u{c}',
                Some(b'n') => '\n',
                Some(b'r') => '\r',
                Some(b't') => '\t',
                Some(b'u') => {
                    let mut units = vec![self.hex4()?];
                    if (0xD800..0xDC00).contains(&units[0])
                        && self.text[self.at..].starts_with("\\u")
                    {
                        self.at += 2;
                        units.push(self.hex4()?);
                    }
                    char::decode_utf16(units).next().and_then(Result::ok).ok_or("lone surrogate")?
                }
                _ => return Err("bad escape"),
            });
        }
    }

    fn hex4(&mut self) -> Result<u16, &'static str> {
        let hex = self.text.get(self.at..self.at + 4).filter(|h| !h.starts_with('+'));
        self.at += 4;
        hex.and_then(|h| u16::from_str_radix(h, 16).ok()).ok_or("bad \\u escape")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_every_kind_of_value() {
        let v =
            parse(r#" {"a": [1, -2.5e3, true, false, null], "b": {"c": "d\u00e9\ud834\udd1e"}} "#)
                .expect("parse");
        let a = v.get("a").and_then(Value::as_array).expect("a");
        assert_eq!(a[0].as_u64(), Some(1));
        assert_eq!(a[1].as_f64(), Some(-2500.0));
        assert_eq!(a[1].as_i64(), None, "not integral");
        assert_eq!(&a[2..], [Value::Bool(true), Value::Bool(false), Value::Null]);
        assert_eq!(v.get("b").and_then(|b| b.get("c")).and_then(Value::as_str), Some("dé𝄞"));
        assert_eq!(v.get("missing"), None);
        assert_eq!(parse("[]"), Ok(Value::Array(Vec::new())));
        assert_eq!(parse("{}"), Ok(Value::Object(Vec::new())));
    }

    #[test]
    fn integers_read_back_exactly() {
        let v = parse(&format!("[{},{},{}]", u64::MAX, i64::MIN, (1u64 << 53) + 1)).unwrap();
        let items = v.as_array().unwrap();
        assert_eq!(items[0].as_u64(), Some(u64::MAX));
        assert_eq!(items[0].as_i64(), None, "out of range");
        assert_eq!(items[1].as_i64(), Some(i64::MIN));
        assert_eq!(items[1].as_u64(), None, "negative");
        assert_eq!(items[2].as_u64(), Some((1u64 << 53) + 1), "beyond f64's exact range");
    }

    #[test]
    fn escaped_strings_round_trip() {
        let classes = [
            String::from_iter((0u8..0x20).map(char::from)),
            "\"quoted\" and \\back\\slashed/".to_string(),
            "line\u{2028}para\u{2029} del\u{7f}".to_string(),
            "é ß 中文 𝄞 🦀".to_string(),
            String::new(),
        ];
        for s in classes {
            let literal = format!("\"{}\"", escape(&s));
            assert_eq!(parse(&literal).unwrap().as_str(), Some(s.as_str()), "{literal}");
        }
        assert_eq!(escape("a\"b\\c\nd\u{1}"), "a\\\"b\\\\c\\nd\\u0001");
    }

    #[test]
    fn numbers_are_display_or_null() {
        assert_eq!(number(1500.0), "1500");
        assert_eq!(number(1.5), "1.5");
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(f64::NEG_INFINITY), "null");
    }

    #[test]
    fn malformed_documents_are_errors() {
        for bad in [
            "",
            " ",
            "[1,]",
            "{\"a\":1,}",
            "[1 2]",
            "{\"a\" 1}",
            "{1:2}",
            "01",
            "1.",
            ".5",
            "-",
            "1e",
            "+1",
            "\"\\x\"",
            "\"\\u12\"",
            "\"\\u+123\"",
            "\"\\ud800\"",
            "\"\\udc00\"",
            "\"\\ud800\\u0041\"",
            "\"a\nb\"",
            "\"open",
            "[1] x",
            "nul",
            "[true false]",
            "{\"a\"}",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        assert!(parse(&"[".repeat(100_000)).is_err());
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(parse(&deep).is_err());
        assert!(parse(&"{\"a\":".repeat(100_000)).is_err());
    }

    #[test]
    fn every_proper_prefix_of_a_document_is_an_error() {
        let doc = r#"{"cursor":"2:8,0:8","count":2,"records":[{"seq":18446744073709551615,"x":-0.5e-3},[true,false,null,"\u00e9\"\\"]]}"#;
        assert!(parse(doc).is_ok());
        for end in (0..doc.len()).filter(|&i| doc.is_char_boundary(i)) {
            assert!(parse(&doc[..end]).is_err(), "prefix {:?} parsed", &doc[..end]);
        }
    }
}
