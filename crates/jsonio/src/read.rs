//! Recursive-descent JSON reader.

use std::fmt;

use crate::Json;

/// A JSON syntax error with byte offset.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// Byte offset the parser failed at.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parses one JSON document (rejecting trailing non-whitespace).
///
/// # Errors
/// Returns a [`JsonError`] with the byte offset of the first syntax error.
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut parser = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    parser.skip_ws();
    let value = parser.value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(parser.error("trailing characters after JSON document"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, message: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect_byte(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected {:?}", byte as char)))
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, JsonError> {
        let rest = self.bytes.get(self.pos..).unwrap_or_default();
        if rest.starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected `{text}`")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect_byte(b'{')?;
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
            self.expect_byte(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.error("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect_byte(b'[')?;
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
                _ => return Err(self.error("expected `,` or `]` in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escaped = self.peek().ok_or_else(|| self.error("dangling escape"))?;
                    self.pos += 1;
                    match escaped {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let code = self.hex_escape()?;
                            let scalar = if (0xD800..0xDC00).contains(&code) {
                                // RFC 8259: non-BMP characters arrive as a
                                // UTF-16 surrogate pair of \u escapes.
                                if self.bytes.get(self.pos..self.pos + 2) != Some(&b"\\u"[..]) {
                                    return Err(self.error("unpaired high surrogate"));
                                }
                                self.pos += 2;
                                let low = self.hex_escape()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(self.error("invalid low surrogate"));
                                }
                                0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00)
                            } else {
                                code
                            };
                            out.push(
                                char::from_u32(scalar)
                                    .ok_or_else(|| self.error("non-scalar \\u escape"))?,
                            );
                        }
                        _ => return Err(self.error("unknown escape")),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 code point.
                    let start = self.pos;
                    self.pos += 1;
                    while self.peek().is_some_and(|b| b & 0xC0 == 0x80) {
                        self.pos += 1;
                    }
                    out.push_str(
                        self.bytes
                            .get(start..self.pos)
                            .and_then(|bytes| std::str::from_utf8(bytes).ok())
                            .ok_or_else(|| self.error("invalid UTF-8 in string"))?,
                    );
                }
            }
        }
    }

    /// Reads the four hex digits of a `\u` escape (cursor already past the
    /// `\u`).
    fn hex_escape(&mut self) -> Result<u32, JsonError> {
        let hex = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.error("truncated \\u escape"))?;
        let hex = std::str::from_utf8(hex).map_err(|_| self.error("invalid \\u escape"))?;
        let code = u32::from_str_radix(hex, 16).map_err(|_| self.error("invalid \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = self
            .bytes
            .get(start..self.pos)
            .and_then(|bytes| std::str::from_utf8(bytes).ok())
            .ok_or_else(|| self.error("invalid number"))?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.error("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_perf_summary_shape() {
        let doc = r#"{
            "scale": "quick",
            "threads": 1,
            "gemm": [
                {"m": 256, "k": 256, "n": 256, "speedup": 2.297}
            ],
            "vit": {"batch": 32, "batch_speedup": 1.674, "predictions_agree": true}
        }"#;
        let json = parse(doc).unwrap();
        assert_eq!(json.get("scale").unwrap().as_str(), Some("quick"));
        let gemm = json.get("gemm").unwrap().as_array().unwrap();
        assert_eq!(gemm[0].get("m").unwrap().as_f64(), Some(256.0));
        assert_eq!(gemm[0].get("speedup").unwrap().as_f64(), Some(2.297));
        assert_eq!(
            json.get("vit")
                .unwrap()
                .get("predictions_agree")
                .unwrap()
                .as_bool(),
            Some(true)
        );
    }

    #[test]
    fn parses_scalars_strings_and_escapes() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse("-12.5e2").unwrap(), Json::Num(-1250.0));
        assert_eq!(parse("false").unwrap(), Json::Bool(false));
        assert_eq!(
            parse(r#""a\n\"b\" é""#).unwrap(),
            Json::Str("a\n\"b\" é".into())
        );
        assert_eq!(parse("[]").unwrap(), Json::Arr(vec![]));
        assert_eq!(parse("{}").unwrap(), Json::Obj(vec![]));
    }

    #[test]
    fn surrogate_pairs_decode_and_lone_surrogates_are_rejected() {
        // RFC 8259 escaping of U+1F4CD (round pushpin) as a surrogate pair.
        assert_eq!(
            parse(r#""\ud83d\udccd""#).unwrap(),
            Json::Str("\u{1f4cd}".into())
        );
        for bad in [
            r#""\ud83d""#,       // unpaired high surrogate
            r#""\ud83d\n""#,     // high surrogate followed by non-\u escape
            r#""\ud83dx""#,      // high surrogate followed by raw text
            r#""\ud83d\ud83d""#, // two high surrogates
            r#""\udccd""#,       // lone low surrogate
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,", "{\"a\":}", "tru", "1 2", "\"unterminated"] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
        let err = parse("{\"a\": nope}").unwrap_err();
        assert!(err.to_string().contains("byte"));
    }
}
