//! JSON rendering/parsing over the `serde` shim's `Value` data model.

use serde::{Deserialize, Serialize, Value};

pub use serde::Error;

/// Serialize to a compact JSON string.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_value(), &mut out, None, 0);
    Ok(out)
}

/// Serialize to pretty-printed JSON (2-space indent).
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_value(), &mut out, Some(2), 0);
    Ok(out)
}

/// Parse a JSON string into any `Deserialize` type.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::custom("trailing characters after JSON value"));
    }
    T::from_value(&v)
}

fn write_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(w) = indent {
        out.push('\n');
        for _ in 0..w * depth {
            out.push(' ');
        }
    }
}

fn write_value(v: &Value, out: &mut String, indent: Option<usize>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::Float(f) => {
            if f.is_finite() {
                let s = f.to_string();
                out.push_str(&s);
            } else {
                // JSON has no NaN/Infinity; serde_json emits null.
                out.push_str("null");
            }
        }
        Value::String(s) => write_string(s, out),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                    if indent.is_none() {
                        // compact: no space
                    }
                }
                write_indent(out, indent, depth + 1);
                write_value(item, out, indent, depth + 1);
            }
            write_indent(out, indent, depth);
            out.push(']');
        }
        Value::Object(entries) => {
            if entries.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, val)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_indent(out, indent, depth + 1);
                write_string(k, out);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(val, out, indent, depth + 1);
            }
            write_indent(out, indent, depth);
            out.push('}');
        }
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::custom(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') if self.eat_keyword("null") => Ok(Value::Null),
            Some(b't') if self.eat_keyword("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.parse_string().map(Value::String),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                loop {
                    items.push(self.parse_value()?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => {
                            self.pos += 1;
                        }
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Array(items));
                        }
                        _ => return Err(Error::custom("expected `,` or `]` in array")),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut entries = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Value::Object(entries));
                }
                loop {
                    self.skip_ws();
                    let key = self.parse_string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    let val = self.parse_value()?;
                    entries.push((key, val));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => {
                            self.pos += 1;
                        }
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Value::Object(entries));
                        }
                        _ => return Err(Error::custom("expected `,` or `}` in object")),
                    }
                }
            }
            Some(b'-') | Some(b'0'..=b'9') => self.parse_number(),
            _ => Err(Error::custom(format!(
                "unexpected character at byte {}",
                self.pos
            ))),
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let rest = &self.bytes[self.pos..];
            let Some(&b) = rest.first() else {
                return Err(Error::custom("unterminated string"));
            };
            match b {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    let esc = rest
                        .get(1)
                        .copied()
                        .ok_or_else(|| Error::custom("bad escape"))?;
                    self.pos += 2;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| Error::custom("bad \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| Error::custom("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| Error::custom("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not needed for this
                            // workspace's identifiers; map lone
                            // surrogates to the replacement character.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(Error::custom("unknown escape")),
                    }
                }
                _ => {
                    // Consume the whole run up to the next `"` or `\`
                    // in one push. The input came from a `&str` and
                    // both delimiters are ASCII, so the cut lands on a
                    // char boundary and the run is valid UTF-8 — the
                    // check below is O(run), never O(rest of input).
                    let run = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(rest.len());
                    let s = std::str::from_utf8(&rest[..run])
                        .map_err(|_| Error::custom("invalid UTF-8"))?;
                    out.push_str(s);
                    self.pos += run;
                }
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::custom("bad number"))?;
        if is_float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| Error::custom(format!("bad float `{text}`")))
        } else {
            text.parse::<i128>()
                .map(Value::Int)
                .map_err(|_| Error::custom(format!("bad integer `{text}`")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        assert_eq!(to_string(&42u64).unwrap(), "42");
        assert_eq!(from_str::<u64>("42").unwrap(), 42);
        assert_eq!(to_string(&-1.5f64).unwrap(), "-1.5");
        assert_eq!(from_str::<f64>("-1.5").unwrap(), -1.5);
        assert_eq!(from_str::<Option<f64>>("null").unwrap(), None);
        assert_eq!(to_string(&"a\"b\n").unwrap(), r#""a\"b\n""#);
        assert_eq!(from_str::<String>(r#""a\"b\n""#).unwrap(), "a\"b\n");
    }

    #[test]
    fn roundtrip_collections() {
        let v = vec![(1u32, "x".to_string()), (2, "y".to_string())];
        let json = to_string(&v).unwrap();
        let back: Vec<(u32, String)> = from_str(&json).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn u64_extremes_roundtrip() {
        for x in [0u64, u64::MAX, 0xC0FFEE] {
            let json = to_string(&x).unwrap();
            assert_eq!(from_str::<u64>(&json).unwrap(), x);
        }
    }

    #[test]
    fn strings_mixing_runs_escapes_and_multibyte_round_trip() {
        for s in [
            "",
            "plain ascii run",
            "é",
            "naïve café — résumé ✓ 表",
            "\"",
            "\\",
            "\n",
            "\"\\\n\r\t\"\\",
            "a\"b\\c\nd",
            "é\"é\\é\né",
            "t_orders\"\\\n表é\u{1F600}end",
            "\u{1}\u{1f}",
        ] {
            let json = to_string(&s).unwrap();
            assert_eq!(from_str::<String>(&json).unwrap(), s, "json {json}");
        }
        // Escapes the writer never emits still decode.
        assert_eq!(
            from_str::<String>(r#""\/\b\féx""#).unwrap(),
            "/\u{8}\u{c}éx"
        );
    }

    #[test]
    fn string_writer_output_is_pinned() {
        assert_eq!(to_string(&"").unwrap(), r#""""#);
        assert_eq!(to_string(&"é\"\\\n").unwrap(), "\"é\\\"\\\\\\n\"");
        assert_eq!(to_string(&"\r\t\u{1}").unwrap(), r#""\r\t\u0001""#);
    }

    #[test]
    fn bad_strings_are_typed_errors() {
        for bad in [
            r#""unterminated"#,
            r#""ends in escape\"#,
            r#""é run then eof"#,
            "\"",
        ] {
            let err = from_str::<String>(bad).unwrap_err();
            assert!(err.to_string().contains("unterminated") || err.to_string().contains("escape"));
        }
        assert!(from_str::<String>(r#""\q""#)
            .unwrap_err()
            .to_string()
            .contains("unknown escape"));
        assert!(from_str::<String>(r#""\u12""#)
            .unwrap_err()
            .to_string()
            .contains("\\u escape"));
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // The old per-character parser re-validated the rest of the
        // input for every character: 1 MiB of plain text took minutes.
        let s = "é".repeat(1 << 19);
        let json = to_string(&s).unwrap();
        let start = std::time::Instant::now();
        assert_eq!(from_str::<String>(&json).unwrap(), s);
        assert!(start.elapsed() < std::time::Duration::from_secs(5));
    }

    #[test]
    fn pretty_output_parses_back() {
        let v = vec![vec![1i64, 2], vec![3]];
        let json = to_string_pretty(&v).unwrap();
        assert!(json.contains('\n'));
        let back: Vec<Vec<i64>> = from_str(&json).unwrap();
        assert_eq!(back, v);
    }
}
